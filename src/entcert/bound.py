"""Certified lower bounds on logarithmic negativity from measurement data.

Given a list of bipartite measurement operators M_i and their expectation
values m_i = Tr(rho M_i), any Hermitian witness H with -I <= H <= I and
H^{T1} >= sum_i nu_i M_i proves

    sum_i nu_i m_i = Tr(rho sum_i nu_i M_i) <= Tr(rho^{T1} H) <= ||rho^{T1}||_1,

so log2 of the optimized linear objective lower-bounds the logarithmic
negativity of every state consistent with the data.  This module assembles
the measurement operators from the weak-homodyne detector model, one
detector on each mode, builds the witness search as a block SDP over
(H, nu), adds the box-error variant that guards against relative errors on
the data, and implements the two local-oscillator phase-noise models used
in the robustness studies.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import fock, sdp
from .detector import DetectorConfig, homodyne_povm
from .fock import FockOperator, HilbertSpec, TOL_PSD, TruncatedState

DEFAULT_PHASES = (0.0, math.pi / 2.0)
DEFAULT_OUTCOMES = (0, 1, 2, 3)

# relative Gram singular value below which a multiplier combination is
# removed from the witness search; combinations below the cut would draw
# multipliers above ~1e11 whose feasibility margin and data-rounding
# amplification cost more bound than the directions contribute
GRAM_NULL_CUT = 1e-10


# smallest error budget whose robust program takes its multipliers in the
# data's own coordinates; below it the charge is too weak to hold them off
# the near-null operator combinations, and the program is solved in Gram
# coordinates as the exact one is.  Measured at eps = 1e-9 .. 1e-4 on the
# table point at n_max = 2 and 3 and on a full-information 2 x 2 toy: from
# 1e-5 up the data coordinates end optimal and at or above the Gram bound
# in every case; at 1e-6 the n_max = 2 solve stalls after 53 iterations
# (Gram: optimal in 17), and at 1e-9 the n_max = 3 bound is 0.7232837
# against 0.7251399
DATA_COORDINATES_MIN_EPSILON = 1e-5


# ---------------------------------------------------------------------------
# measurement data containers


class MeasurementSet:
    """Bipartite measurement operators paired with their expectation values.

    The identity operator with expectation 1 anchors the witness program; it
    must appear exactly once.  `matrices` stacks the operator matrices.
    """

    def __init__(self, operators, expectations):
        operators = list(operators)
        expectations = np.asarray(expectations, dtype=float).reshape(-1)
        if len(operators) != expectations.size:
            raise ValueError("operators and expectations length mismatch")
        if not operators:
            raise ValueError("empty measurement set")
        space = operators[0].space
        if space.n_modes != 2:
            raise ValueError("measurement operators must be bipartite")
        eye = np.eye(space.dim)
        identity_hits = []
        for k, op in enumerate(operators):
            if op.space != space:
                raise ValueError("operators live on different spaces")
            mat = op.matrix
            if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                raise ValueError(f"operator {k} not Hermitian")
            w = np.linalg.eigvalsh(mat)
            if w[0] < -TOL_PSD or w[-1] > 1.0 + 1e-8:
                raise ValueError(f"operator {k} outside [0, I]")
            if np.max(np.abs(mat - eye)) < 1e-10:
                identity_hits.append(k)
        if not np.all((expectations >= -1e-10) & (expectations <= 1.0 + 1e-10)):
            raise ValueError("expectations outside [0, 1]")
        if len(identity_hits) != 1:
            raise ValueError("identity operator must appear exactly once")
        self.operators = operators
        self.matrices = np.array([op.matrix for op in operators])
        self.expectations = np.clip(expectations, 0.0, 1.0)
        self.identity_index = identity_hits[0]
        if abs(self.expectations[self.identity_index] - 1.0) > 1e-10:
            raise ValueError("identity expectation must be 1")

    def __len__(self):
        return len(self.operators)

    @property
    def space(self) -> HilbertSpec:
        return self.operators[0].space


NOISE_KINDS = ("static_calibration", "phase_averaged")


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Local-oscillator phase noise used when generating data.

    Both kinds act on the LO as a list of coherent components.
    static_calibration perturbs each nominal setting once per trial, giving
    a one-component LO: theta = 0 becomes +-epsilon/10 and theta = pi/2
    becomes (pi/2)(1 +- epsilon/10), signs drawn independently per mode and
    per setting.  phase_averaged replaces the LO by an equal-weight mixture
    of `samples` coherent states with phase offsets drawn uniformly from an
    interval of full width `width` (or of standard deviation `width` when
    width_is_std is set), redrawn per mode and per setting.
    """

    kind: str
    epsilon: float = 0.0
    width: float = 0.0
    samples: int = 100
    seed: int = 0
    width_is_std: bool = False

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError("unknown noise kind")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if not (0.0 <= self.width < math.inf):
            raise ValueError("width must be finite and nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass
class BoundResult:
    """Certified lower bound with the witness that proves it."""

    lower_bound: float
    witness_H: np.ndarray
    multipliers: np.ndarray
    solver_status: str
    error_budget: float = 0.0
    degenerate: bool = False
    linear_objective: float = 0.0
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# measurement assembly and simulation


def _mode_elements(det, phases, signal_cutoff, lo_components_per_phase):
    """Ordered single-mode operators: DEFAULT_OUTCOMES within each phase setting."""
    ops = []
    for idx, phase in enumerate(phases):
        comps = None if lo_components_per_phase is None else lo_components_per_phase[idx]
        povm = homodyne_povm(
            replace(det, lo_phase=float(phase)), signal_cutoff, lo_components=comps
        )
        by_outcome = {e.outcome: e.operator.matrix for e in povm.elements}
        for beta in DEFAULT_OUTCOMES:
            if beta not in by_outcome:
                raise ValueError(f"outcome {beta!r} not produced by the detector")
            ops.append(by_outcome[beta])
    return ops


def build_measurements(
    det1: DetectorConfig,
    det2: DetectorConfig,
    phases: Sequence[float] = DEFAULT_PHASES,
    *,
    signal_cutoff: int = 3,
    lo_components1=None,
    lo_components2=None,
):
    """All products of the two single-mode click POVM subsets, plus identity.

    Per mode the ordered element list runs over DEFAULT_OUTCOMES (0, 1, 2, 3)
    within each phase setting, e.g. for phases (0, pi/2):
    {P_{0,0}, P_{1,0}, P_{2,0}, P_{3,0}, P_{0,pi/2}, .., P_{3,pi/2}}.
    The joint operator with 1-based index (j, k) sits at list position
    (j-1)*P + k, after the identity at position 0, where P is the per-mode
    element count.  lo_components1 / lo_components2 give, per phase setting,
    the LO of that mode as a list of (weight, amplitude) components (see
    detector.homodyne_povm); a noise-perturbed mode keeps its nominal phase
    labels and ordering and carries the perturbed LO there.
    """
    ops1 = _mode_elements(det1, phases, signal_cutoff, lo_components1)
    ops2 = _mode_elements(det2, phases, signal_cutoff, lo_components2)
    space = HilbertSpec((signal_cutoff, signal_cutoff))
    out = [FockOperator(space, np.eye(space.dim, dtype=complex))]
    for a in ops1:
        for b in ops2:
            out.append(FockOperator(space, np.kron(a, b)))
    return out


def simulate_expectations(state: TruncatedState, ops) -> np.ndarray:
    """m_i = Tr(rho M_i) for a list of operators, clamped to [0, 1]."""
    vals = np.empty(len(ops))
    for k, op in enumerate(ops):
        if op.space.cutoffs != state.space.cutoffs:
            raise ValueError("operator and state cutoffs differ")
        v = float(np.real(np.trace(state.matrix @ op.matrix)))
        if v < -1e-10 or v > 1.0 + 1e-10:
            raise ValueError(f"expectation {v} outside [0, 1] beyond tolerance")
        vals[k] = min(max(v, 0.0), 1.0)
    return vals


# ---------------------------------------------------------------------------
# witness SDP


def _hermitian_basis(n: int) -> np.ndarray:
    """Real-linear basis of n x n Hermitian matrices, n^2 elements."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    k = 0
    for p in range(n):
        basis[k, p, p] = 1.0
        k += 1
    for p in range(n):
        for q in range(p + 1, n):
            basis[k, p, q] = basis[k, q, p] = 1.0
            k += 1
            basis[k, p, q] = 1j
            basis[k, q, p] = -1j
            k += 1
    return basis


def _unit_trace_basis(n: int):
    """Affine coordinates of the unit-trace n x n Hermitian matrices.

    Returns (rho0, basis) with rho0 = I/n and basis the n^2 - 1 traceless
    directions B_k = E_k - tr(E_k) I/n for the elements E_k, k >= 1, of
    _hermitian_basis(n); rho0 + sum_k y_k B_k has unit trace for every real
    y and reaches every unit-trace Hermitian matrix.
    """
    herm = _hermitian_basis(n)[1:]
    rho0 = np.eye(n) / n
    traces = np.real(np.einsum("kaa->k", herm))
    return rho0, herm - traces[:, None, None] * rho0


def _gram_rotation(mats: np.ndarray):
    """Eigenbasis of the operator Gram matrix with reliable direction norms.

    Returns (vecs, sig): Gram eigenvectors as columns, and the Frobenius
    norm of each rotated combination sum_i vecs[i, k] M_i measured directly
    in operator space.  Eigenvalues of the Gram matrix bottom out at the
    double-precision noise floor (~1e-14 here), which would misreport
    combination norms below ~1e-7; the direct sum resolves them to ~1e-13
    and lets exactly dependent combinations be recognized as such.
    """
    gram = np.real(np.einsum("iab,jba->ij", mats, mats))
    _, vecs = np.linalg.eigh(gram)
    combos = np.einsum("ik,iab->kab", vecs, mats)
    sig = np.sqrt(np.einsum("kab,kab->k", combos.real, combos.real)
                  + np.einsum("kab,kab->k", combos.imag, combos.imag))
    return vecs, sig


def _boxed(measurements: MeasurementSet) -> np.ndarray:
    """Indices of the data that carry an error box: every nonzero datum
    except the identity's, which is exact."""
    boxed = np.flatnonzero(measurements.expectations > 0.0)
    return boxed[boxed != measurements.identity_index]


def _min_slack(h, nu, mats, d1, d2) -> float:
    """Least eigenvalue of H^{T1} - sum_i nu_i M_i."""
    g = fock.partial_transpose_array(h, d1, d2) - np.tensordot(nu, mats, axes=(0, 0))
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])


def _certified_objective(nu, mvec, epsilon, boxed):
    """Worst-case linear objective over the error box and its clamped log2.

    Returns (linear, bound): linear = sum_i nu_i m_i - epsilon sum_{i boxed}
    |nu_i| m_i, and bound = log2(linear) clamped below at 0 (0 as well when
    linear <= 0, a degenerate witness).
    """
    linear = float(nu @ mvec)
    if epsilon > 0.0:
        linear -= epsilon * float(np.sum(np.abs(nu[boxed]) * mvec[boxed]))
    return linear, 0.0 if linear <= 0.0 else max(0.0, math.log2(linear))


def _witness_program(measurements: MeasurementSet, epsilon: float, null_cut: float | None):
    """Assemble the block SDP over y = (H parameters, z, [t aux]).

    Blocks: H^{T1} - sum nu_i M_i >= 0, I - H >= 0, I + H >= 0, all n x n
    complex Hermitian; for epsilon > 0, scalar blocks t~_i -+ n_i nu_i >= 0
    implement t~_i >= n_i |nu_i| for every nonzero data entry, and the
    objective charges -epsilon per unit t~_i, which totals the worst-case
    loss epsilon sum_i n_i |nu_i| over the error box.

    The multipliers are written nu = R z, and R is returned, None for the
    identity.  With null_cut None, R = I: z is nu itself, over every
    operator, and each box row has two entries.  Robust programs take this
    form down to DATA_COORDINATES_MIN_EPSILON, because their charge lives in
    the data's own coordinates and is not rotation-invariant: a combination
    with sum_i a_i M_i = 0 leaves block A unchanged and may still lower the
    charge, so a rotation that drops it solves over a subspace.

    Otherwise R spans the eigenvectors of the Gram matrix tr(M_i M_j) whose
    combinations exceed null_cut relative to the largest, as the exact
    program (epsilon = 0) takes it.  Click operator sets are close to
    linearly dependent (outcome sums nearly resolve the identity), and the
    optimal witness pushes hard along those near-null combinations;
    per-column scaling inside the solver cannot see them, but in the Gram
    eigenbasis they become ordinary well-scaled directions.  Exactly
    dependent combinations carry no constraint at all and are dropped so
    they cannot wander, and at most n^2 directions are kept, the real
    dimension of the n x n Hermitian operators.
    """
    space = measurements.space
    d1, d2 = (c + 1 for c in space.cutoffs)
    n = space.dim
    nh = n * n
    mats = measurements.matrices
    mvec = measurements.expectations

    basis = _hermitian_basis(n)
    basis_pt = fock.partial_transpose_array(basis, d1, d2)

    if null_cut is None:
        rot, nk = None, len(mats)
    else:
        vecs, sig = _gram_rotation(mats)
        keep = sig > null_cut * sig.max()
        # mutually orthogonal combinations past the nh largest are roundoff,
        # whatever their measured norm; one kept would make block A's
        # columns dependent and leave the objective along the dependence to
        # roundoff
        if np.count_nonzero(keep) > nh:
            keep &= sig >= np.sort(sig)[-nh]
        rot = vecs[:, keep]
        nk = rot.shape[1]
    t_for = _boxed(measurements) if epsilon > 0.0 else np.zeros(0, dtype=np.intp)
    nt = t_for.size
    nvar = nh + nk + nt

    c = np.zeros(nvar)
    c[nh : nh + nk] = mvec if rot is None else rot.T @ mvec
    # aux variables are data-weighted, t~_i = n_i t_i, so they stay O(1)
    # even where the multipliers are huge and the data tiny
    c[nh + nk : nvar] = -epsilon

    # block A: sum_k h_k B_k^{T1} - sum_i nu_i M_i >= 0
    fs_a = np.zeros((nvar, n, n), dtype=complex)
    fs_a[:nh] = -basis_pt
    fs_a[nh : nh + nk] = mats if rot is None else np.einsum("ik,iab->kab", rot, mats)
    blocks = [(np.zeros((n, n)), fs_a)]

    # blocks B, C: I -+ H >= 0
    for sign in (1.0, -1.0):
        fs = np.zeros((nvar, n, n), dtype=complex)
        fs[:nh] = sign * basis
        blocks.append((np.eye(n), fs))

    # scalar boxes t~_i >= +-n_i nu_i with nu_i = R[i] z: per boxed datum
    # the F rows of the 1 x 1 blocks t~_i - n_i nu_i and t~_i + n_i nu_i
    rows = np.zeros((nt, 2, nvar))
    pos = np.arange(nt)
    rows[pos, :, nh + nk + pos] = -1.0
    if rot is None:
        rows[pos, 0, nh + t_for] = mvec[t_for]
    else:
        rows[:, 0, nh : nh + nk] = mvec[t_for, None] * rot[t_for]
    rows[:, 1, nh : nh + nk] = -rows[:, 0, nh : nh + nk]
    zero = np.zeros((1, 1))
    blocks.extend((zero, row[:, None, None]) for row in rows.reshape(2 * nt, nvar))

    return sdp.ConicProgram(c, blocks), basis, t_for, rot


def _polish_witness(h, nu, mats, identity_index, d1, d2):
    """Rescale H into the operator-norm ball and shift the identity
    multiplier until the matrix inequality holds with margin; both moves
    only lower the objective.

    The slack matrix is a near-cancelling sum with multiplier mass around
    1e10, so re-forming it from the final (H, nu) carries floating-point
    error of order eps times that mass (about 1e-5 eigenvalue jitter).  A
    single shift by the observed minimum eigenvalue therefore does not
    survive independent recomputation; instead the shift overshoots by a
    margin tied to the cancellation scale and iterates until the freshly
    recomputed eigenvalue clears the margin, which also covers the true
    (exact-arithmetic) slack.
    """
    norm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    s = max(1.0, norm)
    h = h / s
    nu = (nu / s).copy()
    fro = np.sqrt(
        np.einsum("iab,iab->i", mats.real, mats.real)
        + np.einsum("iab,iab->i", mats.imag, mats.imag)
    )
    shift_total = 0.0
    for _ in range(8):
        lmin = _min_slack(h, nu, mats, d1, d2)
        margin = np.finfo(float).eps * float(np.abs(nu) @ fro + 1.0)
        if lmin >= margin:
            break
        step = lmin - 2.0 * margin
        nu[identity_index] += step
        shift_total += step
    return h, nu, min(shift_total, 0.0)


def _finish_bound(measurements, epsilon, sol, basis, t_for, rot) -> BoundResult:
    space = measurements.space
    d1, d2 = (c + 1 for c in space.cutoffs)
    nh = space.dim ** 2
    mats = measurements.matrices
    mvec = measurements.expectations

    # on one BLAS thread, as in the solve, so that the certified bound does
    # not depend on the caller's thread count
    with sdp.one_blas_thread():
        h = np.tensordot(sol.y_star[:nh], basis, axes=(0, 0))
        h = 0.5 * (h + h.conj().T)
        if rot is None:
            nu = sol.y_star[nh : nh + len(mats)]
        else:
            nu = rot @ sol.y_star[nh : nh + rot.shape[1]]
        h, nu, lmin = _polish_witness(h, nu, mats, measurements.identity_index, d1, d2)
        linear, bound = _certified_objective(nu, mvec, epsilon, t_for)
    return BoundResult(
        lower_bound=bound,
        witness_H=h,
        multipliers=nu,
        solver_status=sol.status,
        error_budget=epsilon,
        degenerate=linear <= 0.0,
        linear_objective=linear,
        info={
            "iterations": sol.iterations,
            "duality_gap": sol.duality_gap,
            "weak_duality_violation": sol.info["weak_duality_violation"],
            "psd_shift": lmin,
            "raw_objective": sol.objective_value,
        },
    )


# Stricter fallback cuts for the Gram rotation, used only below
# DATA_COORDINATES_MIN_EPSILON (the exact program, epsilon = 0, and tiny
# budgets): a robust program above it has no rotation and is solved once.
# When the kept directions include numerically-null combinations
# (degenerate operator sets at small cutoffs, or very low detector
# efficiency), the solver can park enormous multipliers on them: the
# pre-combined rotated operators are tiny, so the program barely notices,
# but re-certifying the witness from (H, nu) in the original operator basis
# then loses the objective to cancellation noise.  Raising the cut prunes
# those directions and restores conditioning at a small cost in
# expressiveness, so the laddered solve keeps whichever rung certifies the
# largest objective.  A rung ends the ladder when its certificate keeps the
# solver's objective: within _CERT_LOSS_TOL for an optimal solve, and within
# the solve's own gap_tol for a stalled one (gap converged, residual parked
# above tolerance).  A stricter cut can only lower the program's optimum, so
# it has nothing to recover from a rung whose certificate loses nothing; a
# stalled rung that loses more than gap_tol to polishing may still be beaten
# by the next cut.  A rung that hit the iteration cap or failed moves on to
# the next cut, its polished witness still in the running.
_CUT_LADDER = (GRAM_NULL_CUT, 1e-8, 1e-6)

# relative slack allowed between an optimal solve's objective and the
# value the polished certificate actually sustains before a stricter cut
# is tried
_CERT_LOSS_TOL = 1e-4

# relative duality gap at which a witness solve stops
_WITNESS_GAP_TOL = 1e-7


def _solve_witness(measurements, epsilon) -> BoundResult:
    if epsilon >= DATA_COORDINATES_MIN_EPSILON:
        program, basis, t_for, rot = _witness_program(measurements, epsilon, None)
        sol = sdp.solve(program, gap_tol=_WITNESS_GAP_TOL)
        return _finish_bound(measurements, epsilon, sol, basis, t_for, rot)
    best = None
    for cut in _CUT_LADDER:
        program, basis, t_for, rot = _witness_program(measurements, epsilon, cut)
        sol = sdp.solve(program, gap_tol=_WITNESS_GAP_TOL)
        res = _finish_bound(measurements, epsilon, sol, basis, t_for, rot)
        res.info["null_cut"] = cut
        if best is None or res.linear_objective > best.linear_objective:
            best = res
        loss_tol = {
            sdp.STATUS_OPTIMAL: _CERT_LOSS_TOL, sdp.STATUS_STALLED: _WITNESS_GAP_TOL
        }.get(sol.status)
        if loss_tol is not None and res.linear_objective >= sol.objective_value - loss_tol * (
            1.0 + abs(sol.objective_value)
        ):
            break
    return best


def lower_bound_negativity(measurements: MeasurementSet) -> BoundResult:
    """Best certified lower bound from exact expectation values.

    Maximizes the linear objective sum nu_i m_i over feasible witnesses and
    returns log2 of it, clamped below at zero (the trace norm of a partial
    transpose is never below 1).  The returned (H, nu) are polished to be
    feasible on their own, so the bound does not rely on solver internals.
    """
    return _solve_witness(measurements, 0.0)


def lower_bound_negativity_robust(measurements: MeasurementSet, epsilon: float) -> BoundResult:
    """Worst-case bound when each datum n_i may err by a relative epsilon.

    Maximizes sum_i nu_i n_i - epsilon sum_i |nu_i| n_i, valid for any true
    values m_i in [(1-eps) n_i, (1+eps) n_i], including adversarially
    correlated errors.  The identity entry is exact and carries no box.
    From DATA_COORDINATES_MIN_EPSILON up the multipliers range over all
    operators and the bound is one solve, with no null_cut in info.  Below
    it double precision does not resolve the near-null operator
    combinations that so small a charge leaves nearly free, and the program
    is solved as the exact one is, over the Gram directions above the null
    cut; the maximum is then taken over that subspace only.
    """
    if not (0.0 <= epsilon < math.inf):
        raise ValueError("epsilon must be finite and nonnegative")
    if epsilon == 0.0:
        return lower_bound_negativity(measurements)
    return _solve_witness(measurements, epsilon)


def verify_bound(measurements: MeasurementSet, result: BoundResult):
    """Re-check the witness inequalities and objective from scratch.

    "verified" is the verdict every caller reports: the witness is feasible
    and its recomputed objective matches the bound."""
    d1, d2 = (c + 1 for c in measurements.space.cutoffs)
    h = result.witness_H
    nu = result.multipliers
    g_min = _min_slack(h, nu, measurements.matrices, d1, d2)
    h_norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))))
    linear, recomputed = _certified_objective(
        nu, measurements.expectations, result.error_budget, _boxed(measurements)
    )
    feasible = g_min > -TOL_PSD and h_norm <= 1.0 + TOL_PSD
    bound_matches = abs(recomputed - result.lower_bound) < 1e-8
    return {
        "matrix_ineq_min_eig": g_min,
        "h_norm": h_norm,
        "feasible": feasible,
        "linear_objective": linear,
        "recomputed_bound": recomputed,
        "bound_matches": bound_matches,
        "verified": bool(feasible and bound_matches),
    }


def reconcile_expectations(measurements: MeasurementSet):
    """Fit a physical state to the data and return its exact moments.

    Data recorded with miscalibrated detectors is in general reproducible by
    no state through the nominal operators; the witness program on such data
    is unbounded along near-dependent operator combinations and the solver
    correctly reports infeasibility.  This preprocessing step finds the
    state rho_hat (PSD, unit trace) minimizing the data deviation and swaps
    each datum for the fitted value tr(rho_hat M_i), which is achievable by
    construction.

    The deviation is measured per Gram direction relative to that
    direction's own operator norm: |u_k . (fitted - data)| <= sig_k * t.
    A combination u with ||sum_i u_ik M_i|| = sig_k only constrains states
    through a window of width about sig_k, and the witness multipliers grow
    like 1/sig_k, so an unweighted fit that parks tiny-norm directions at a
    uniform absolute deviation destroys several percent of the bound while
    a sig-weighted one keeps the multiplier-weighted error uniformly small.
    Returns the corrected MeasurementSet and a dict with the fit residual
    and the largest datum shift.

    The state is written rho = I/n + sum_k y_k B_k over the traceless
    directions of _unit_trace_basis, so it has unit trace for every y and
    the program needs no equality row: the PSD block is rho itself, and
    each target is measured from the moments tr(M_i I/n) of the origin.

    Intended for data that is nearly consistent already (detector noise or
    miscalibration); the returned moments are always exactly physical, but
    for grossly inconsistent input the weighted fit may not converge and
    the result is then a best-effort state with a large fit_residual, which
    callers should inspect.
    """
    space = measurements.space
    n = space.dim
    mats = measurements.matrices
    mvec = measurements.expectations
    rho0, basis = _unit_trace_basis(n)
    nb = len(basis)
    amat = np.real(np.einsum("iab,kba->ik", mats, basis))
    offset = np.real(np.einsum("iab,ba->i", mats, rho0))
    vecs, sig = _gram_rotation(mats)
    keep = sig > GRAM_NULL_CUT * sig.max()
    # windows narrower than ~1e-9 of the leading direction claim more
    # precision than the truncated operator model carries, and under gross
    # data corruption they push the fit scale past what the interior-point
    # iteration can follow; flooring them keeps the program tame while
    # leaving realistic (noise-level) fits untouched
    sig_eff = np.maximum(sig, 1e-9 * sig.max())

    c = np.zeros(nb + 1)
    c[nb] = -1.0
    fs_psd = np.zeros((nb + 1, n, n), dtype=complex)
    fs_psd[:nb] = -basis
    blocks = [(rho0, fs_psd)]
    for k in np.nonzero(keep)[0]:
        g = vecs[:, k]
        row = g @ amat
        target = float(g @ (mvec - offset))
        for sign in (1.0, -1.0):
            frow = np.zeros((nb + 1, 1, 1))
            frow[:nb, 0, 0] = sign * row
            frow[nb, 0, 0] = -sig_eff[k]
            blocks.append((sign * target * np.ones((1, 1)), frow))
    program = sdp.ConicProgram(c, blocks)
    sol = sdp.solve(program, gap_tol=1e-8)

    # on one BLAS thread, as in the solve, so that the fitted moments do not
    # depend on the caller's thread count
    with sdp.one_blas_thread():
        rho = rho0 + np.tensordot(sol.y_star[:nb], basis, axes=(0, 0))
        rho = 0.5 * (rho + rho.conj().T)
        w, v = np.linalg.eigh(rho)
        w = np.clip(w, 0.0, None)
        rho = (v * w) @ v.conj().T
        rho /= np.trace(rho).real
        fitted = np.real(np.einsum("iab,ba->i", mats, rho))
    fitted[measurements.identity_index] = 1.0
    info = {
        "fit_residual": float(-sol.objective_value),
        "max_shift": float(np.max(np.abs(fitted - mvec))),
        "fit_status": sol.status,
    }
    return MeasurementSet(measurements.operators, fitted), info


# ---------------------------------------------------------------------------
# phase-noise models


def apply_phase_noise(det: DetectorConfig, model: PhaseNoiseModel, rng):
    """One noise draw for a single detector at its current nominal phase.

    Returns the LO as a list of (weight, amplitude) components: one
    component at the perturbed phase for static_calibration, the LO mixture
    for phase_averaged, and [(1.0, det.lo_alpha)] for zero noise.
    """
    if model.kind == "static_calibration":
        if model.epsilon == 0.0:
            return [(1.0, det.lo_alpha)]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta0 = det.lo_phase
        if abs(theta0) < 1e-12:
            theta = sign * model.epsilon / 10.0
        else:
            theta = theta0 * (1.0 + sign * model.epsilon / 10.0)
        # through DetectorConfig, so the phase is wrapped into [0, 2 pi)
        return [(1.0, replace(det, lo_phase=theta).lo_alpha)]
    if model.width == 0.0:
        return [(1.0, det.lo_alpha)]
    half = math.sqrt(3.0) * model.width if model.width_is_std else model.width / 2.0
    deltas = rng.uniform(-half, half, model.samples)
    weight = 1.0 / model.samples
    amp = abs(det.lo_amplitude)
    return [(weight, amp * np.exp(1j * (det.lo_phase + d))) for d in deltas]


def noisy_bound(
    state: TruncatedState,
    det1: DetectorConfig,
    det2: DetectorConfig,
    model: PhaseNoiseModel,
    *,
    phases: Sequence[float] = DEFAULT_PHASES,
    rng,
    nominal_ops,
    robust_epsilon: float = 0.0,
) -> BoundResult:
    """One trial: simulate data under noisy detectors, bound with nominal ones.

    The expectation values come from the true (noise-perturbed) operators
    while the witness program is built on the nominal operators, modeling an
    experimenter unaware of the miscalibration.  Each noise draw is an LO
    component list per mode and setting (one component for a static draw),
    passed to build_measurements as lo_components1 / lo_components2.  The
    data is first reconciled to the nearest physical moment vector
    (reconcile_expectations); without that step the mismatch makes the
    witness program unbounded.  info["verified"] records verify_bound's
    verdict on the reconciled set the bound was certified against.
    """
    cutoff = state.space.cutoffs[0]
    if state.space.cutoffs[1] != cutoff:
        raise ValueError("expected a symmetric bipartite cutoff")
    comps1 = [apply_phase_noise(replace(det1, lo_phase=float(p)), model, rng) for p in phases]
    comps2 = [apply_phase_noise(replace(det2, lo_phase=float(p)), model, rng) for p in phases]
    true_ops = build_measurements(
        det1,
        det2,
        phases=phases,
        signal_cutoff=cutoff,
        lo_components1=comps1,
        lo_components2=comps2,
    )
    data = simulate_expectations(state, true_ops)
    ms, fit_info = reconcile_expectations(MeasurementSet(nominal_ops, data))
    result = lower_bound_negativity_robust(ms, robust_epsilon)
    check = verify_bound(ms, result)
    result.info["noise_kind"] = model.kind
    result.info["noise_seed"] = model.seed
    result.info["reconciliation"] = fit_info
    result.info["verified"] = check["verified"]
    return result


def noise_trials(
    state: TruncatedState,
    det1: DetectorConfig,
    det2: DetectorConfig,
    model: PhaseNoiseModel,
    trials: int = 20,
    *,
    phases: Sequence[float] = DEFAULT_PHASES,
    robust_epsilon: float = 0.0,
):
    """Repeated noise draws sharing one seeded stream; deterministic."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(model.seed)
    cutoff = state.space.cutoffs[0]
    nominal_ops = build_measurements(det1, det2, phases=phases, signal_cutoff=cutoff)
    return [
        noisy_bound(
            state, det1, det2, model,
            phases=phases, rng=rng, nominal_ops=nominal_ops, robust_epsilon=robust_epsilon,
        )
        for _ in range(trials)
    ]


# ---------------------------------------------------------------------------
# serialization


def bound_result_to_json(result: BoundResult) -> dict:
    h = result.witness_H
    return {
        "lower_bound": result.lower_bound,
        "multipliers": result.multipliers.tolist(),
        "witness_H_re": np.real(h).tolist(),
        "witness_H_im": np.imag(h).tolist(),
        "solver_status": result.solver_status,
        "error_budget": result.error_budget,
        "degenerate": result.degenerate,
        "linear_objective": result.linear_objective,
        "info": {
            k: v
            for k, v in result.info.items()
            if isinstance(v, (int, float, str, bool))
        },
    }
