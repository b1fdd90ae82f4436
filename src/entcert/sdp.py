"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Programs are stated in the bounded maximization form

    maximize    c . y
    subject to  S_b(y) = F0_b - sum_j y_j Fj_b  PSD   for every block b,
                A y = b_eq                             (optional),

over real y, with each block's F matrices real symmetric or complex
Hermitian.  A block's iterates take the dtype of its data, so a complex
block is solved on its own n x n Hermitian cone, with no real embedding;
every inner product is Re tr(AB), taken over real views of the arrays.

The solver runs an infeasible-start path-following iteration with
Nesterov-Todd scaling and Mehrotra predictor-corrector steps.  1x1 blocks
are grouped into a single diagonal (linear-programming) cone so scalar
constraints cost vector arithmetic only.  The dual certificate X returned
with the solution verifies the objective bound independently: weak duality
gives  c . y  <=  sum_b tr(F0_b X_b) + b_eq . lam  for any dual-feasible X.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

TOL_SYM = 1e-10
TOL_PSD = 1e-9

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"
STATUS_STALLED = "stalled"

# divergence thresholds for infeasibility / unboundedness detection
_DIV_TRACE = 1e7
_DIV_OBJ = 1e10
_CERT_TOL = 1e-7

# lack-of-progress stop in the manner of SDPT3 (Toh, Todd & Tutuncu, Optim.
# Methods Softw. 11, 1999): once the gap has met gap_tol, the solve has
# stalled when the worst residual has not dropped by a relative _STALL_GAIN
# below its best since then for _STALL_WINDOW iterations.  The gap is left
# out of that test: past gap_tol it keeps shrinking by ~10% per iteration
# while a residual parked by roundoff stays put, and counting it as progress
# only prolongs the crawl.
_STALL_WINDOW = 5
_STALL_GAIN = 1e-3


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of a stack of matrices."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _rv(a: np.ndarray) -> np.ndarray:
    """Real view of an array: for Hermitian A and B, Re tr(AB) is the dot
    product of their flattened real views."""
    return np.ascontiguousarray(a).view(np.float64)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(AB) of two Hermitian matrices."""
    return float(_rv(a).ravel() @ _rv(b).ravel())


class ConicProgram:
    """Block-diagonal SDP data in the maximization form documented above.

    blocks is a sequence of (F0, Fs) pairs with F0 shaped (n, n) and Fs
    shaped (m, n, n), real symmetric or complex Hermitian; equalities, when
    present, is a pair (A, b) with A shaped (p, m).
    """

    def __init__(self, objective, blocks, equalities=None):
        self.objective = np.asarray(objective, dtype=float).reshape(-1)
        m = self.objective.size
        if m == 0:
            raise ValueError("program needs at least one variable")
        self.blocks = []
        for k, (f0, fs) in enumerate(blocks):
            dtype = np.result_type(np.asarray(f0), np.asarray(fs), float)
            f0 = np.asarray(f0, dtype=dtype)
            fs = np.asarray(fs, dtype=dtype)
            if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
                raise ValueError(f"block {k}: F0 must be square")
            n = f0.shape[0]
            if fs.shape != (m, n, n):
                raise ValueError(f"block {k}: Fs must have shape (m, n, n)")
            if np.max(np.abs(f0 - f0.conj().T)) > TOL_SYM:
                raise ValueError(f"block {k}: F0 not Hermitian")
            if np.max(np.abs(fs - np.swapaxes(fs, 1, 2).conj())) > TOL_SYM:
                raise ValueError(f"block {k}: some Fj not Hermitian")
            self.blocks.append((_herm(f0), _herm(fs)))
        if not self.blocks:
            raise ValueError("program needs at least one block")
        if equalities is None:
            self.eq_a = None
            self.eq_b = None
        else:
            a, b = equalities
            self.eq_a = np.asarray(a, dtype=float).reshape(-1, m)
            self.eq_b = np.asarray(b, dtype=float).reshape(-1)
            if self.eq_a.shape[0] != self.eq_b.size:
                raise ValueError("equality dimensions inconsistent")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def block_sizes(self):
        return tuple(f0.shape[0] for f0, _ in self.blocks)


@dataclass
class SdpSolution:
    y_star: np.ndarray
    objective_value: float
    dual_certificate: list
    duality_gap: float
    status: str
    iterations: int = 0
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# internal linear algebra helpers


class _NumericalProblem(Exception):
    pass


def _floored_eigh(mat: np.ndarray):
    w, u = np.linalg.eigh(mat)
    if not np.all(np.isfinite(w)):
        raise _NumericalProblem("non-finite eigenvalues")
    floor = 1e-14 * max(1.0, abs(w[-1]))
    return np.maximum(w, floor), u


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Scaling point W with W S W = X plus its square root factors."""
    ws, us = _floored_eigh(s)
    s_half = (us * np.sqrt(ws)) @ us.conj().T
    s_mhalf = (us / np.sqrt(ws)) @ us.conj().T
    inner = _herm(s_half @ x @ s_half)
    wi, ui = _floored_eigh(inner)
    root = (ui * np.sqrt(wi)) @ ui.conj().T
    w = _herm(s_mhalf @ root @ s_mhalf)
    tw, uw = _floored_eigh(w)
    t = (uw * np.sqrt(tw)) @ uw.conj().T
    tinv = (uw / np.sqrt(tw)) @ uw.conj().T
    v = _herm(t @ s @ t)
    lam, p = _floored_eigh(v)
    return {"w": w, "t": t, "tinv": tinv, "p": p, "lam": lam}


def _lyap_inv(p: np.ndarray, lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (V U + U V) / 2 = B for U in the eigenbasis (p, lam) of V."""
    bt = p.conj().T @ b @ p
    return _herm(p @ (2.0 * bt / (lam[:, None] + lam[None, :])) @ p.conj().T)


def _max_step_psd(mat: np.ndarray, dmat: np.ndarray) -> float:
    """Largest a with mat + a*dmat PSD; mat assumed PD."""
    w, u = _floored_eigh(mat)
    mihalf = (u / np.sqrt(w)) @ u.conj().T
    lmin = np.linalg.eigvalsh(_herm(mihalf @ dmat @ mihalf))[0]
    if lmin >= 0.0:
        return np.inf
    return -1.0 / lmin


def _max_step_pos(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


# ---------------------------------------------------------------------------
# solver


def solve(
    program: ConicProgram,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
    feas_tol: float = 1e-8,
    fraction_to_boundary: float = 0.98,
) -> SdpSolution:
    """Run the interior-point iteration on `program`.

    Returns status ``optimal`` when the relative duality gap drops below
    gap_tol with both residuals below feas_tol; ``infeasible`` when a Farkas
    ray or objective divergence is detected; ``stalled`` when the gap is
    below gap_tol but the worst residual has not improved by 0.1% for 5
    iterations, typically a residual parked just above feas_tol by
    roundoff; ``max_iterations`` or ``numerical_failure`` otherwise.
    Every status but ``infeasible`` carries the best iterate seen, the one
    with the smallest worst of gap and residuals.  ``info`` holds the
    iteration history, the returned iterate's dual objective and its
    ``weak_duality_violation``, max(0, primal - dual).
    """
    m = program.objective.size
    gamma = float(fraction_to_boundary)

    # split 1x1 blocks into a grouped diagonal cone; keep the rest as
    # matrix cones, entries (orig_index, f0, fs)
    cones = [(k, f0, fs) for k, (f0, fs) in enumerate(program.blocks) if f0.shape[0] > 1]
    lp_index = [k for k, (f0, _) in enumerate(program.blocks) if f0.shape[0] == 1]
    lp_f0 = np.array([program.blocks[k][0][0, 0].real for k in lp_index])
    lp_f = np.array([program.blocks[k][1][:, 0, 0].real for k in lp_index]).reshape(-1, m)
    nlp = len(lp_index)
    ntot = sum(f0.shape[0] for _, f0, _ in cones) + nlp

    if program.eq_a is None:
        eq_a, eq_b = np.zeros((0, m)), np.zeros(0)
    else:
        eq_a, eq_b = program.eq_a, program.eq_b
    neq = eq_b.size

    # Jacobi column scaling equilibrates the Schur complement; variables
    # coupling only to low-norm constraint matrices otherwise force huge
    # multipliers and wreck its conditioning
    nrm2 = np.einsum("kj,kj->j", lp_f, lp_f)
    for _, _, fs in cones:
        flat = _rv(fs).reshape(m, -1)
        nrm2 += np.einsum("jk,jk->j", flat, flat)
    dvec = 1.0 / np.sqrt(np.maximum(nrm2, 1e-16))
    dvec = np.minimum(dvec, 1e8)
    c = program.objective * dvec
    # entries (orig_index, f0, fs, fs_flat), fs_flat the real view of fs
    # reshaped to (m, -1) for the Re tr(Fj X) moments
    sdp = []
    for k, f0, fs in cones:
        fs = fs * dvec[:, None, None]
        sdp.append((k, f0, fs, _rv(fs).reshape(m, -1)))
    lp_f = lp_f * dvec[None, :]
    eq_a = eq_a * dvec[None, :]

    xs = [np.eye(f0.shape[0], dtype=f0.dtype) for _, f0, _, _ in sdp]
    ss = [np.eye(f0.shape[0], dtype=f0.dtype) for _, f0, _, _ in sdp]
    xlp = np.ones(nlp)
    slp = np.ones(nlp)
    y = np.zeros(m)
    lam_eq = np.zeros(neq)

    scale_c = 1.0 + np.max(np.abs(c))
    scale_f = 1.0 + max(
        [np.max(np.abs(f0)) for _, f0, _, _ in sdp] + [np.max(np.abs(lp_f0), initial=0.0)]
    )

    history = []
    best = None
    best_score = np.inf
    best_res = np.inf
    status = STATUS_MAX_ITERATIONS
    detail = ""
    stalls = 0
    it = 0
    progress_it = 0

    def _pack(y_, xs_, xlp_, gap_, dobj_):
        cert = [None] * len(program.blocks)
        for (k, _, _, _), xb in zip(sdp, xs_):
            cert[k] = _herm(xb)
        for j, k in enumerate(lp_index):
            cert[k] = np.full((1, 1), xlp_[j], dtype=program.blocks[k][0].dtype)
        return {
            "y": y_.copy(),
            "cert": cert,
            "gap": gap_,
            "dual_objective": dobj_,
        }

    try:
        for it in range(1, max_iter + 1):
            # residuals of both constraint systems
            rd = [
                _herm(sb + np.tensordot(y, fs, axes=(0, 0)) - f0)
                for (_, f0, fs, _), sb in zip(sdp, ss)
            ]
            rd_lp = slp + lp_f @ y - lp_f0
            moments = lp_f.T @ xlp + eq_a.T @ lam_eq
            for (_, _, _, fs_flat), xb in zip(sdp, xs):
                moments += fs_flat @ _rv(xb).reshape(-1)
            r_p = c - moments
            r_eq = eq_b - eq_a @ y

            gap_abs = sum(_inner(xb, sb) for xb, sb in zip(xs, ss)) + float(xlp @ slp)
            # roundoff can push the gap below zero once it is spent
            mu = max(gap_abs, 0.0) / ntot
            pobj = float(c @ y)
            dobj = sum(_inner(f0, xb) for (_, f0, _, _), xb in zip(sdp, xs))
            dobj += float(lp_f0 @ xlp) + float(eq_b @ lam_eq)

            rel_gap = gap_abs / (1.0 + abs(pobj) + abs(dobj))
            res_x = float(np.max(np.abs(r_p))) / scale_c
            res_y = max(
                [float(np.max(np.abs(r))) for r in rd]
                + [float(np.max(np.abs(rd_lp), initial=0.0))]
            ) / scale_f
            res_eq = float(np.max(np.abs(r_eq), initial=0.0)) / (
                1.0 + np.max(np.abs(eq_b), initial=0.0)
            )

            history.append(
                {
                    "mu": mu,
                    "gap_abs": gap_abs,
                    "rel_gap": rel_gap,
                    "res_moment": res_x,
                    "res_slack": res_y,
                    "primal_objective": pobj,
                    "dual_objective": dobj,
                }
            )

            res = max(res_x, res_y, res_eq)
            score = max(rel_gap, res)
            # progress is gauged on the full score until the gap has
            # converged, and after that on the residuals against their best
            # since convergence
            if rel_gap < gap_tol:
                if res < (1.0 - _STALL_GAIN) * best_res:
                    progress_it = it
                best_res = min(best_res, res)
            elif score < (1.0 - _STALL_GAIN) * best_score:
                progress_it = it
            if score < best_score:
                best_score = score
                best = _pack(y, xs, xlp, rel_gap, dobj)

            if rel_gap < gap_tol and res < feas_tol:
                status = STATUS_OPTIMAL
                break

            # Farkas-style infeasibility: dual trace diverges while the scaled
            # moments vanish and the scaled dual objective stays negative
            tau = (
                sum(float(np.trace(xb).real) for xb in xs)
                + float(np.sum(xlp))
                + float(np.sum(np.abs(lam_eq)))
            )
            if tau > _DIV_TRACE:
                if np.max(np.abs(moments)) / tau < _CERT_TOL and dobj / tau < -_CERT_TOL:
                    status = STATUS_INFEASIBLE
                    detail = "constraints infeasible (Farkas certificate)"
                    break
            if pobj > _DIV_OBJ or np.max(np.abs(y)) > _DIV_OBJ:
                status = STATUS_INFEASIBLE
                detail = "objective diverges (dual side infeasible)"
                break
            if not np.isfinite(score):
                status = STATUS_NUMERICAL_FAILURE
                detail = "non-finite iterate"
                break
            if rel_gap < gap_tol and it - progress_it >= _STALL_WINDOW:
                status = STATUS_STALLED
                detail = f"no progress in {_STALL_WINDOW} iterations"
                break

            # NT scalings, Schur complement, factorization (shared by both
            # predictor and corrector)
            scals = [_nt_scaling(xb, sb) for xb, sb in zip(xs, ss)]
            wlp = np.sqrt(xlp / slp)
            vlp = np.sqrt(xlp * slp)

            # entry (i, j) is Re tr(T Fi T T Fj T) over the matrix cones;
            # dsyrk forms only the upper triangle, at half the cost of g g^T
            schur = (lp_f * (wlp**2)[:, None]).T @ lp_f
            for (_, _, fs, _), sc in zip(sdp, scals):
                g = _rv(sc["t"] @ fs @ sc["t"]).reshape(m, -1)
                schur += scipy.linalg.blas.dsyrk(1.0, g)
            schur = np.triu(schur) + np.triu(schur, 1).T

            if neq:
                kkt = np.zeros((m + neq, m + neq))
                kkt[:m, :m] = schur
                kkt[:m, m:] = eq_a.T
                kkt[m:, :m] = eq_a
                lu = scipy.linalg.lu_factor(kkt)

                def _solve_kkt(rhs_y, rhs_eq):
                    stacked = np.concatenate([rhs_y, rhs_eq])
                    sol = scipy.linalg.lu_solve(lu, stacked)
                    # one refinement pass against roundoff in the factorization
                    sol += scipy.linalg.lu_solve(lu, stacked - kkt @ sol)
                    return sol[:m], sol[m:]

            else:
                # regularize only when the factorization actually fails;
                # a preemptive ridge scaled to the diagonal grows like the
                # inverse squared gap and poisons the late iterations
                cho = None
                ridge = 1e-14 * (1.0 + np.max(np.diag(schur)))
                for attempt in range(4):
                    try:
                        cho = scipy.linalg.cho_factor(schur)
                        break
                    except scipy.linalg.LinAlgError:
                        schur[np.diag_indices_from(schur)] += ridge * 10.0**attempt
                if cho is None:
                    raise _NumericalProblem("Schur complement not positive definite")

                def _solve_kkt(rhs_y, rhs_eq):
                    sol = scipy.linalg.cho_solve(cho, rhs_y)
                    sol += scipy.linalg.cho_solve(cho, rhs_y - schur @ sol)
                    return sol, np.zeros(0)

            def _direction(es, elp):
                # assemble rhs, solve for dy, back out dS and dX blockwise
                rhs = r_p - lp_f.T @ (wlp * elp + wlp**2 * rd_lp)
                for (_, _, _, fs_flat), sc, rb, eb in zip(sdp, scals, rd, es):
                    h = sc["t"] @ eb @ sc["t"] + sc["w"] @ rb @ sc["w"]
                    rhs -= fs_flat @ _rv(h).reshape(-1)
                dy, dlam = _solve_kkt(rhs, r_eq)
                dss, dxs = [], []
                for (_, _, fs, _), sc, rb, eb in zip(sdp, scals, rd, es):
                    dsb = _herm(-rb - np.tensordot(dy, fs, axes=(0, 0)))
                    dxb = _herm(sc["t"] @ eb @ sc["t"] - sc["w"] @ dsb @ sc["w"])
                    dss.append(dsb)
                    dxs.append(dxb)
                dslp = -rd_lp - lp_f @ dy
                dxlp = wlp * elp - wlp**2 * dslp
                return dy, dlam, dxs, dss, dxlp, dslp

            def _steps(dxs, dss, dxlp, dslp):
                ap = _max_step_pos(xlp, dxlp)
                ad = _max_step_pos(slp, dslp)
                for xb, sb, dxb, dsb in zip(xs, ss, dxs, dss):
                    ap = min(ap, _max_step_psd(xb, dxb))
                    ad = min(ad, _max_step_psd(sb, dsb))
                return ap, ad

            # predictor: aim straight at the boundary (sigma = 0, E = -V)
            es_aff = [-_herm((sc["p"] * sc["lam"]) @ sc["p"].conj().T) for sc in scals]
            d_aff = _direction(es_aff, -vlp)
            ap_aff, ad_aff = _steps(*d_aff[2:])
            a_aff = min(1.0, ap_aff, ad_aff)

            gap_aff = sum(
                _inner(xb + a_aff * dxb, sb + a_aff * dsb)
                for xb, sb, dxb, dsb in zip(xs, ss, d_aff[2], d_aff[3])
            )
            gap_aff += float((xlp + a_aff * d_aff[4]) @ (slp + a_aff * d_aff[5]))
            mu_aff = max(gap_aff, 0.0) / ntot
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 1e-8
            # keep mu tethered to the infeasibility: driving the gap far
            # below the residuals jams the iterate on the boundary before
            # the moment equations are satisfied
            res_abs = max(float(np.max(np.abs(r), initial=0.0)) for r in (r_p, rd_lp, r_eq, *rd))
            if mu > 0 and res_abs > 0:
                sigma = max(sigma, min(0.9, 0.1 * res_abs / mu))

            # corrector: recenter to sigma*mu and cancel the second-order term
            es_cor = []
            for sc, dxb, dsb in zip(scals, d_aff[2], d_aff[3]):
                dxh = sc["tinv"] @ dxb @ sc["tinv"]
                dsh = sc["t"] @ dsb @ sc["t"]
                cross = _herm(dxh @ dsh)
                vmat = (sc["p"] * sc["lam"]) @ sc["p"].conj().T
                b = sigma * mu * np.eye(vmat.shape[0]) - vmat @ vmat - cross
                es_cor.append(_lyap_inv(sc["p"], sc["lam"], _herm(b)))
            elp_cor = (sigma * mu - xlp * slp - d_aff[4] * d_aff[5]) / vlp
            dy, dlam, dxs, dss, dxlp, dslp = _direction(es_cor, elp_cor)

            # equal primal/dual step: both residuals then contract at least
            # as fast as mu, so the gap cannot outrun the infeasibility
            ap, ad = _steps(dxs, dss, dxlp, dslp)
            alpha = min(1.0, gamma * ap, gamma * ad)
            if alpha < 1e-10:
                stalls += 1
                if stalls >= 5:
                    raise _NumericalProblem("step sizes collapsed")
            else:
                stalls = 0

            for i in range(len(xs)):
                xs[i] = _herm(xs[i] + alpha * dxs[i])
                ss[i] = _herm(ss[i] + alpha * dss[i])
            xlp = xlp + alpha * dxlp
            slp = slp + alpha * dslp
            y = y + alpha * dy
            lam_eq = lam_eq + alpha * dlam

    except _NumericalProblem as err:
        status = STATUS_NUMERICAL_FAILURE
        detail = str(err)

    if best is None:
        best = _pack(y, xs, xlp, np.inf, np.nan)

    if status != STATUS_INFEASIBLE:
        result = best
    else:
        result = _pack(y, xs, xlp, np.inf, np.nan)

    y_out = dvec * result["y"]
    pobj = float(program.objective @ y_out)
    return SdpSolution(
        y_star=y_out,
        objective_value=pobj,
        dual_certificate=result["cert"],
        duality_gap=float(result["gap"]),
        status=status,
        iterations=it,
        info={
            "history": history,
            "dual_objective": result["dual_objective"],
            # weak duality holds for exact iterates; roundoff in a residual
            # parked above feas_tol can push the primal above the dual
            "weak_duality_violation": float(
                np.maximum(0.0, pobj - result["dual_objective"])
            ),
            "detail": detail,
        },
    )


def verify_solution(program: ConicProgram, solution: SdpSolution, psd_tol: float = TOL_PSD):
    """Independent certificate check by eigendecomposition.

    Returns minimum eigenvalues of the slack and certificate blocks, the
    certificate's moment residual, and both objective values; weak duality
    requires dual >= primal up to arithmetic slack whenever the certificate
    is feasible.
    """
    y = solution.y_star
    slack_min = np.inf
    cert_min = np.inf
    dual_obj = 0.0
    moments = np.zeros(program.n_vars)
    for (f0, fs), xb in zip(program.blocks, solution.dual_certificate):
        slack = f0 - np.tensordot(y, fs, axes=(0, 0))
        slack_min = min(slack_min, float(np.linalg.eigvalsh(_herm(slack))[0]))
        cert_min = min(cert_min, float(np.linalg.eigvalsh(_herm(xb))[0]))
        dual_obj += _inner(f0, xb)
        moments += _rv(fs).reshape(program.n_vars, -1) @ _rv(xb).reshape(-1)
    if program.eq_a is not None:
        # equality multipliers are folded into the moment residual bound
        resid, *_ = np.linalg.lstsq(
            program.eq_a.T, program.objective - moments, rcond=None
        )
        moments = moments + program.eq_a.T @ resid
        dual_obj += float(program.eq_b @ resid)
    primal_obj = float(program.objective @ y)
    moment_residual = float(np.max(np.abs(program.objective - moments)))
    return {
        "primal_objective": primal_obj,
        "dual_objective": dual_obj,
        "slack_min_eig": slack_min,
        "certificate_min_eig": cert_min,
        "moment_residual": moment_residual,
        "psd_ok": slack_min > -psd_tol and cert_min > -psd_tol,
        "weak_duality_ok": dual_obj >= primal_obj - 1e-9 * (1.0 + abs(primal_obj)),
    }
