"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Programs are stated in the bounded maximization form

    maximize    c . y
    subject to  S_b(y) = F0_b - sum_j y_j Fj_b  PSD   for every block b,
                A y = b_eq                             (optional),

with all F matrices real symmetric.  Complex Hermitian constraints enter
through ``hermitian_embed``, which doubles each eigenvalue but preserves
signs, so PSD-ness and objective values carry over unchanged.

The solver runs an infeasible-start path-following iteration with
Nesterov-Todd scaling and Mehrotra predictor-corrector steps.  1x1 blocks
are grouped into a single diagonal (linear-programming) cone so scalar
constraints cost vector arithmetic only.  The dual certificate X returned
with the solution verifies the objective bound independently: weak duality
gives  c . y  <=  sum_b tr(F0_b X_b) + b_eq . lam  for any dual-feasible X.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

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
# stalled when the convergence score (worst of relative gap and residuals)
# has not dropped by a relative _STALL_GAIN below its best for
# _STALL_WINDOW iterations
_STALL_WINDOW = 5
_STALL_GAIN = 1e-3


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


class ConicProgram:
    """Block-diagonal SDP data in the maximization form documented above.

    blocks is a sequence of (F0, Fs) pairs with F0 shaped (n, n) and Fs
    shaped (m, n, n); equalities, when present, is a pair (A, b) with A
    shaped (p, m).
    """

    def __init__(self, objective, blocks, equalities=None):
        self.objective = np.asarray(objective, dtype=float).reshape(-1)
        m = self.objective.size
        if m == 0:
            raise ValueError("program needs at least one variable")
        self.blocks = []
        for k, (f0, fs) in enumerate(blocks):
            f0 = np.asarray(f0, dtype=float)
            fs = np.asarray(fs, dtype=float)
            if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
                raise ValueError(f"block {k}: F0 must be square")
            n = f0.shape[0]
            if fs.shape != (m, n, n):
                raise ValueError(f"block {k}: Fs must have shape (m, n, n)")
            if np.max(np.abs(f0 - f0.T)) > TOL_SYM:
                raise ValueError(f"block {k}: F0 not symmetric")
            if np.max(np.abs(fs - np.transpose(fs, (0, 2, 1)))) > TOL_SYM:
                raise ValueError(f"block {k}: some Fj not symmetric")
            self.blocks.append((_sym(f0), 0.5 * (fs + np.transpose(fs, (0, 2, 1)))))
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


def hermitian_embed(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of Hermitian H.

    The embedding has the eigenvalues of H with doubled multiplicity, so it
    is PSD iff H is.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(h - h.conj().T)) > TOL_SYM * max(1.0, np.max(np.abs(h))):
        raise ValueError("matrix is not Hermitian")
    re, im = np.real(h), np.imag(h)
    return _sym(np.block([[re, -im], [im, re]]))


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
    s_half = (us * np.sqrt(ws)) @ us.T
    s_mhalf = (us / np.sqrt(ws)) @ us.T
    inner = _sym(s_half @ x @ s_half)
    wi, ui = _floored_eigh(inner)
    root = (ui * np.sqrt(wi)) @ ui.T
    w = _sym(s_mhalf @ root @ s_mhalf)
    tw, uw = _floored_eigh(w)
    t = (uw * np.sqrt(tw)) @ uw.T
    tinv = (uw / np.sqrt(tw)) @ uw.T
    v = _sym(t @ s @ t)
    lam, p = _floored_eigh(v)
    return {"w": w, "t": t, "tinv": tinv, "p": p, "lam": lam}


def _lyap_inv(p: np.ndarray, lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (V U + U V) / 2 = B for U in the eigenbasis (p, lam) of V."""
    bt = p.T @ b @ p
    return _sym(p @ (2.0 * bt / (lam[:, None] + lam[None, :])) @ p.T)


def _max_step_psd(mat: np.ndarray, dmat: np.ndarray) -> float:
    """Largest a with mat + a*dmat PSD; mat assumed PD."""
    w, u = _floored_eigh(mat)
    mihalf = (u / np.sqrt(w)) @ u.T
    lmin = np.linalg.eigvalsh(_sym(mihalf @ dmat @ mihalf))[0]
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
    below gap_tol but the worst of gap and residuals has not improved by
    0.1% for 5 iterations, typically a residual parked just above feas_tol
    by roundoff; ``max_iterations`` or ``numerical_failure`` otherwise.
    Every status but ``infeasible`` carries the best iterate seen.  ``info``
    holds the iteration history, the returned iterate's dual objective and
    its ``weak_duality_violation``, max(0, primal - dual).
    """
    m = program.objective.size
    gamma = float(fraction_to_boundary)

    # split 1x1 blocks into a grouped diagonal cone; keep the rest dense
    sdp = []        # entries: (orig_index, f0, fs, fs_flat)
    lp_rows = []    # entries: (orig_index, f0_scalar, f_row)
    for k, (f0, fs) in enumerate(program.blocks):
        if f0.shape[0] == 1:
            lp_rows.append((k, float(f0[0, 0]), fs[:, 0, 0].copy()))
        else:
            sdp.append((k, f0, fs, None))
    nlp = len(lp_rows)
    lp_f0 = np.array([r[1] for r in lp_rows]) if nlp else np.zeros(0)
    lp_f = np.array([r[2] for r in lp_rows]) if nlp else np.zeros((0, m))
    ntot = sum(f0.shape[0] for _, f0, _, _ in sdp) + nlp

    eq_a, eq_b = program.eq_a, program.eq_b
    neq = 0 if eq_a is None else eq_a.shape[0]

    # Jacobi column scaling equilibrates the Schur complement; variables
    # coupling only to low-norm constraint matrices otherwise force huge
    # multipliers and wreck its conditioning
    nrm2 = np.zeros(m)
    for _, _, fs, _ in sdp:
        nrm2 += np.einsum("jab,jab->j", fs, fs)
    if nlp:
        nrm2 += np.einsum("kj,kj->j", lp_f, lp_f)
    dvec = 1.0 / np.sqrt(np.maximum(nrm2, 1e-16))
    dvec = np.minimum(dvec, 1e8)
    c = program.objective * dvec
    sdp = [
        (k, f0, fs * dvec[:, None, None], (fs * dvec[:, None, None]).reshape(m, -1))
        for k, f0, fs, _ in sdp
    ]
    lp_f = lp_f * dvec[None, :]
    if neq:
        eq_a = eq_a * dvec[None, :]

    xs = [np.eye(f0.shape[0]) for _, f0, _, _ in sdp]
    ss = [np.eye(f0.shape[0]) for _, f0, _, _ in sdp]
    xlp = np.ones(nlp)
    slp = np.ones(nlp)
    y = np.zeros(m)
    lam_eq = np.zeros(neq)

    scale_c = 1.0 + np.max(np.abs(c))
    scale_f = 1.0 + max(
        [np.max(np.abs(f0)) for _, f0, _, _ in sdp] + ([np.max(np.abs(lp_f0))] if nlp else [0.0])
    )

    history = []
    best = None
    best_score = np.inf
    status = STATUS_MAX_ITERATIONS
    detail = ""
    stalls = 0
    it = 0
    progress_it = 0

    def _pack(y_, xs_, xlp_, gap_, dobj_):
        cert = [None] * len(program.blocks)
        for (k, _, _, _), xb in zip(sdp, xs_):
            cert[k] = _sym(xb.copy())
        for j, (k, _, _) in enumerate(lp_rows):
            cert[k] = np.array([[xlp_[j]]])
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
                _sym(sb + np.tensordot(y, fs, axes=(0, 0)) - f0)
                for (_, f0, fs, _), sb in zip(sdp, ss)
            ]
            rd_lp = slp + lp_f @ y - lp_f0 if nlp else np.zeros(0)
            moments = np.zeros(m)
            for (_, _, _, fs_flat), xb in zip(sdp, xs):
                moments += fs_flat @ xb.reshape(-1)
            if nlp:
                moments += lp_f.T @ xlp
            if neq:
                moments += eq_a.T @ lam_eq
            r_p = c - moments
            r_eq = eq_b - eq_a @ y if neq else np.zeros(0)

            gap_abs = sum(float(np.sum(xb * sb)) for xb, sb in zip(xs, ss)) + float(xlp @ slp)
            # roundoff can push the gap below zero once it is spent
            mu = max(gap_abs, 0.0) / ntot
            pobj = float(c @ y)
            dobj = sum(float(np.sum(f0 * xb)) for (_, f0, _, _), xb in zip(sdp, xs))
            dobj += float(lp_f0 @ xlp) if nlp else 0.0
            dobj += float(eq_b @ lam_eq) if neq else 0.0

            rel_gap = gap_abs / (1.0 + abs(pobj) + abs(dobj))
            res_x = float(np.max(np.abs(r_p))) / scale_c
            res_y = max(
                [float(np.max(np.abs(r))) for r in rd] + ([float(np.max(np.abs(rd_lp)))] if nlp else [0.0])
            ) / scale_f
            res_eq = float(np.max(np.abs(r_eq))) / (1.0 + np.max(np.abs(eq_b))) if neq else 0.0

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

            score = max(rel_gap, res_x, res_y, res_eq)
            if score < best_score:
                if score < (1.0 - _STALL_GAIN) * best_score:
                    progress_it = it
                best_score = score
                best = _pack(y, xs, xlp, rel_gap, dobj)

            if rel_gap < gap_tol and res_x < feas_tol and res_y < feas_tol and res_eq < feas_tol:
                status = STATUS_OPTIMAL
                break

            # Farkas-style infeasibility: dual trace diverges while the scaled
            # moments vanish and the scaled dual objective stays negative
            tau = sum(float(np.trace(xb)) for xb in xs) + float(np.sum(xlp)) + float(
                np.sum(np.abs(lam_eq))
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
            wlp = np.sqrt(xlp / slp) if nlp else np.zeros(0)
            vlp = np.sqrt(xlp * slp) if nlp else np.zeros(0)

            schur = np.zeros((m, m))
            for (_, _, fs, _), sc in zip(sdp, scals):
                g = (sc["t"] @ fs @ sc["t"]).reshape(m, -1)
                schur += g @ g.T
            if nlp:
                schur += (lp_f * (wlp**2)[:, None]).T @ lp_f

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
                rhs = r_p.copy()
                for (_, _, _, fs_flat), sc, rb, eb in zip(sdp, scals, rd, es):
                    h = sc["t"] @ eb @ sc["t"] + sc["w"] @ rb @ sc["w"]
                    rhs -= fs_flat @ h.reshape(-1)
                if nlp:
                    rhs -= lp_f.T @ (wlp * elp + wlp**2 * rd_lp)
                dy, dlam = _solve_kkt(rhs, r_eq)
                dss, dxs = [], []
                for (_, _, fs, _), sc, rb, eb in zip(sdp, scals, rd, es):
                    dsb = _sym(-rb - np.tensordot(dy, fs, axes=(0, 0)))
                    dxb = _sym(sc["t"] @ eb @ sc["t"] - sc["w"] @ dsb @ sc["w"])
                    dss.append(dsb)
                    dxs.append(dxb)
                if nlp:
                    dslp = -rd_lp - lp_f @ dy
                    dxlp = wlp * elp - wlp**2 * dslp
                else:
                    dslp = np.zeros(0)
                    dxlp = np.zeros(0)
                return dy, dlam, dxs, dss, dxlp, dslp

            def _steps(dxs, dss, dxlp, dslp):
                ap = ad = np.inf
                for xb, sb, dxb, dsb in zip(xs, ss, dxs, dss):
                    ap = min(ap, _max_step_psd(xb, dxb))
                    ad = min(ad, _max_step_psd(sb, dsb))
                if nlp:
                    ap = min(ap, _max_step_pos(xlp, dxlp))
                    ad = min(ad, _max_step_pos(slp, dslp))
                return ap, ad

            # predictor: aim straight at the boundary (sigma = 0, E = -V)
            es_aff = []
            for sc in scals:
                vmat = (sc["p"] * sc["lam"]) @ sc["p"].T
                es_aff.append(-_sym(vmat))
            elp_aff = -vlp
            d_aff = _direction(es_aff, elp_aff)
            ap_aff, ad_aff = _steps(*d_aff[2:])
            a_aff = min(1.0, ap_aff, ad_aff)

            gap_aff = sum(
                float(np.sum((xb + a_aff * dxb) * (sb + a_aff * dsb)))
                for xb, sb, dxb, dsb in zip(xs, ss, d_aff[2], d_aff[3])
            )
            if nlp:
                gap_aff += float((xlp + a_aff * d_aff[4]) @ (slp + a_aff * d_aff[5]))
            mu_aff = max(gap_aff, 0.0) / ntot
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 1e-8
            # keep mu tethered to the infeasibility: driving the gap far
            # below the residuals jams the iterate on the boundary before
            # the moment equations are satisfied
            res_abs = float(np.max(np.abs(r_p))) if m else 0.0
            for r in rd:
                res_abs = max(res_abs, float(np.max(np.abs(r))))
            if nlp:
                res_abs = max(res_abs, float(np.max(np.abs(rd_lp))))
            if neq:
                res_abs = max(res_abs, float(np.max(np.abs(r_eq))))
            if mu > 0 and res_abs > 0:
                sigma = max(sigma, min(0.9, 0.1 * res_abs / mu))

            # corrector: recenter to sigma*mu and cancel the second-order term
            es_cor = []
            for sc, dxb, dsb in zip(scals, d_aff[2], d_aff[3]):
                dxh = sc["tinv"] @ dxb @ sc["tinv"]
                dsh = sc["t"] @ dsb @ sc["t"]
                cross = _sym(dxh @ dsh)
                vmat = (sc["p"] * sc["lam"]) @ sc["p"].T
                b = sigma * mu * np.eye(vmat.shape[0]) - vmat @ vmat - cross
                es_cor.append(_lyap_inv(sc["p"], sc["lam"], _sym(b)))
            if nlp:
                elp_cor = (sigma * mu - xlp * slp - d_aff[4] * d_aff[5]) / vlp
            else:
                elp_cor = np.zeros(0)
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
                xs[i] = _sym(xs[i] + alpha * dxs[i])
                ss[i] = _sym(ss[i] + alpha * dss[i])
            if nlp:
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
        slack_min = min(slack_min, float(np.linalg.eigvalsh(_sym(slack))[0]))
        cert_min = min(cert_min, float(np.linalg.eigvalsh(_sym(xb))[0]))
        dual_obj += float(np.sum(f0 * xb))
        moments += fs.reshape(program.n_vars, -1) @ xb.reshape(-1)
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


# ---------------------------------------------------------------------------
# JSON serialization for regression fixtures


def program_to_json(program: ConicProgram) -> dict:
    doc = {
        "objective": program.objective.tolist(),
        "blocks": [
            {"f0": f0.tolist(), "fs": fs.tolist()} for f0, fs in program.blocks
        ],
    }
    if program.eq_a is not None:
        doc["equalities"] = {"a": program.eq_a.tolist(), "b": program.eq_b.tolist()}
    return doc


def program_from_json(doc: dict) -> ConicProgram:
    eq = None
    if "equalities" in doc and doc["equalities"] is not None:
        eq = (np.array(doc["equalities"]["a"]), np.array(doc["equalities"]["b"]))
    return ConicProgram(
        np.array(doc["objective"]),
        [(np.array(b["f0"]), np.array(b["fs"])) for b in doc["blocks"]],
        equalities=eq,
    )


def solution_to_json(solution: SdpSolution) -> dict:
    return {
        "y_star": solution.y_star.tolist(),
        "objective_value": solution.objective_value,
        "dual_certificate": [x.tolist() for x in solution.dual_certificate],
        "duality_gap": solution.duality_gap,
        "status": solution.status,
        "iterations": solution.iterations,
    }


def solution_from_json(doc: dict) -> SdpSolution:
    return SdpSolution(
        y_star=np.array(doc["y_star"]),
        objective_value=float(doc["objective_value"]),
        dual_certificate=[np.array(x) for x in doc["dual_certificate"]],
        duality_gap=float(doc["duality_gap"]),
        status=doc["status"],
        iterations=int(doc["iterations"]),
    )
