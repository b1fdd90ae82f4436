"""Certified lower bounds on logarithmic negativity from measurement data.

Given a list of bipartite measurement operators M_i and their expectation
values m_i = Tr(rho M_i), any Hermitian witness H with -I <= H <= I and
H^{T1} >= sum_i nu_i M_i proves

    sum_i nu_i m_i = Tr(rho sum_i nu_i M_i) <= Tr(rho^{T1} H) <= ||rho^{T1}||_1,

so log2 of the optimized linear objective lower-bounds the logarithmic
negativity of every state consistent with the data.  This module assembles
the measurement operators from two weak-homodyne detector models, builds
the witness search as a block SDP over (H, nu), adds the box-error variant
that guards against relative errors on the data, and implements the two
local-oscillator phase-noise models used in the robustness studies.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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


# ---------------------------------------------------------------------------
# measurement data containers


class MeasurementSet:
    """Bipartite measurement operators paired with their expectation values.

    The identity operator with expectation 1 anchors the witness program; it
    must appear exactly once when includes_identity is set.
    """

    def __init__(self, operators, expectations, includes_identity=True):
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
        if np.min(expectations) < -1e-10 or np.max(expectations) > 1.0 + 1e-10:
            raise ValueError("expectations outside [0, 1]")
        self.operators = operators
        self.expectations = np.clip(expectations, 0.0, 1.0)
        self.includes_identity = bool(includes_identity)
        if self.includes_identity:
            if len(identity_hits) != 1:
                raise ValueError("identity operator must appear exactly once")
            self.identity_index = identity_hits[0]
            if abs(self.expectations[self.identity_index] - 1.0) > 1e-10:
                raise ValueError("identity expectation must be 1")
        else:
            if identity_hits:
                raise ValueError("unexpected identity operator present")
            self.identity_index = None

    def __len__(self):
        return len(self.operators)

    @property
    def space(self) -> HilbertSpec:
        return self.operators[0].space


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Local-oscillator phase noise used when generating data.

    static_calibration perturbs each nominal setting once per trial:
    theta = 0 becomes +-epsilon/10 and theta = pi/2 becomes
    (pi/2)(1 +- epsilon/10), signs drawn independently per mode and per
    setting.  phase_averaged replaces the LO by an equal-weight mixture of
    `samples` coherent states with phase offsets drawn uniformly from an
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
        if self.kind not in ("static_calibration", "phase_averaged"):
            raise ValueError("unknown noise kind")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.width < 0.0:
            raise ValueError("width must be nonnegative")
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


def _mode_elements(det, outcomes, phases, signal_cutoff, lo_components_per_phase):
    """Ordered single-mode operators: outcomes within each phase setting."""
    ops = []
    for idx, phase in enumerate(phases):
        comps = None if lo_components_per_phase is None else lo_components_per_phase[idx]
        povm = homodyne_povm(
            replace(det, lo_phase=float(phase)), signal_cutoff, lo_components=comps
        )
        by_outcome = {e.outcome: e.operator.matrix for e in povm.elements}
        for beta in outcomes:
            if beta not in by_outcome:
                raise ValueError(f"outcome {beta!r} not produced by the detector")
            ops.append(by_outcome[beta])
    return ops


def build_measurements(
    det1: DetectorConfig,
    det2: DetectorConfig,
    outcomes: Sequence = DEFAULT_OUTCOMES,
    phases: Sequence[float] = DEFAULT_PHASES,
    *,
    signal_cutoff: int = 3,
    phases2: Optional[Sequence[float]] = None,
    lo_components1=None,
    lo_components2=None,
):
    """All products of the two single-mode click POVM subsets, plus identity.

    Per mode the ordered element list runs over outcomes within each phase
    setting, e.g. for outcomes (0,1,2,3) and phases (0, pi/2):
    {P_{0,0}, P_{1,0}, P_{2,0}, P_{3,0}, P_{0,pi/2}, .., P_{3,pi/2}}.
    The joint operator with 1-based index (j, k) sits at list position
    (j-1)*P + k, after the identity at position 0, where P is the per-mode
    element count.  phases2 / lo_components* allow the two modes to carry
    different (e.g. noise-perturbed) settings while keeping the ordering.
    """
    ops1 = _mode_elements(det1, outcomes, phases, signal_cutoff, lo_components1)
    ops2 = _mode_elements(
        det2, outcomes, phases if phases2 is None else phases2, signal_cutoff, lo_components2
    )
    space = HilbertSpec((signal_cutoff, signal_cutoff))
    out = [FockOperator(space, np.eye(space.dim, dtype=complex))]
    for a in ops1:
        for b in ops2:
            out.append(FockOperator(space, np.kron(a, b)))
    return out


def simulate_expectations(state: TruncatedState, measurements) -> np.ndarray:
    """m_i = Tr(rho M_i), clamped to [0, 1]."""
    ops = measurements.operators if isinstance(measurements, MeasurementSet) else measurements
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


def _witness_program(
    measurements: MeasurementSet, epsilon: float, null_cut: float = GRAM_NULL_CUT
):
    """Assemble the block SDP over y = (H parameters, z, [t aux]).

    Blocks: H^{T1} - sum nu_i M_i >= 0, I - H >= 0, I + H >= 0, all n x n
    complex Hermitian; for epsilon > 0, scalar blocks t~_i -+ n_i nu_i >= 0
    implement t~_i >= n_i |nu_i| for every nonzero data entry, and the
    objective charges -epsilon per unit t~_i, which totals the worst-case
    loss epsilon sum_i n_i |nu_i| over the error box.

    The multipliers are optimized in rotated coordinates nu = R z, where R
    spans the non-null eigenvectors of the Gram matrix tr(M_i M_j).  Click
    operator sets are close to linearly dependent (outcome sums nearly
    resolve the identity), and the optimal witness pushes hard along those
    near-null combinations; per-column scaling inside the solver cannot see
    them, but in the Gram eigenbasis they become ordinary well-scaled
    directions.  Exactly dependent combinations carry no constraint at all
    and are dropped so they cannot wander.
    """
    if not measurements.includes_identity:
        raise ValueError("witness program needs the identity measurement")
    space = measurements.space
    d1, d2 = (c + 1 for c in space.cutoffs)
    n = space.dim
    nh = n * n
    nm = len(measurements)
    mats = np.array([op.matrix for op in measurements.operators])
    mvec = measurements.expectations

    basis = _hermitian_basis(n)
    basis_pt = fock.partial_transpose_array(basis, d1, d2)

    vecs, sig = _gram_rotation(mats)
    rot = vecs[:, sig > null_cut * sig.max()]
    nk = rot.shape[1]

    idx_id = measurements.identity_index
    if epsilon > 0.0:
        t_for = [i for i in range(nm) if i != idx_id and mvec[i] > 0.0]
    else:
        t_for = []
    nt = len(t_for)
    nvar = nh + nk + nt

    c = np.zeros(nvar)
    c[nh : nh + nk] = rot.T @ mvec
    # aux variables are data-weighted, t~_i = n_i t_i, so they stay O(1)
    # even where the multipliers are huge and the data tiny
    c[nh + nk : nvar] = -epsilon

    # block A: sum_k h_k B_k^{T1} - sum_i nu_i M_i >= 0
    fs_a = np.zeros((nvar, n, n), dtype=complex)
    fs_a[:nh] = -basis_pt
    fs_a[nh : nh + nk] = np.einsum("ik,iab->kab", rot, mats)
    blocks = [(np.zeros((n, n)), fs_a)]

    # blocks B, C: I -+ H >= 0
    for sign in (1.0, -1.0):
        fs = np.zeros((nvar, n, n), dtype=complex)
        fs[:nh] = sign * basis
        blocks.append((np.eye(n), fs))

    # scalar boxes t~_i >= +-n_i nu_i with nu_i = rot[i, :] @ z
    for pos, i in enumerate(t_for):
        for sign in (1.0, -1.0):
            frow = np.zeros((nvar, 1, 1))
            frow[nh + nk + pos, 0, 0] = -1.0
            frow[nh : nh + nk, 0, 0] = sign * mvec[i] * rot[i, :]
            blocks.append((np.zeros((1, 1)), frow))

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
    hpt = fock.partial_transpose_array(h, d1, d2)
    fro = np.sqrt(
        np.einsum("iab,iab->i", mats.real, mats.real)
        + np.einsum("iab,iab->i", mats.imag, mats.imag)
    )
    shift_total = 0.0
    for _ in range(8):
        g = hpt - np.tensordot(nu, mats, axes=(0, 0))
        lmin = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])
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
    mats = np.array([op.matrix for op in measurements.operators])
    mvec = measurements.expectations

    h = np.tensordot(sol.y_star[:nh], basis, axes=(0, 0))
    h = 0.5 * (h + h.conj().T)
    nu = rot @ sol.y_star[nh : nh + rot.shape[1]]
    h, nu, lmin = _polish_witness(h, nu, mats, measurements.identity_index, d1, d2)

    linear = float(nu @ mvec)
    if epsilon > 0.0:
        linear -= epsilon * float(
            np.sum(np.abs(nu[list(t_for)]) * mvec[list(t_for)])
        )
    degenerate = linear <= 0.0
    bound = 0.0 if degenerate else max(0.0, math.log2(linear))
    return BoundResult(
        lower_bound=bound,
        witness_H=h,
        multipliers=nu,
        solver_status=sol.status,
        error_budget=epsilon,
        degenerate=degenerate,
        linear_objective=linear,
        info={
            "iterations": sol.iterations,
            "duality_gap": sol.duality_gap,
            "weak_duality_violation": sol.info["weak_duality_violation"],
            "psd_shift": lmin,
            "raw_objective": sol.objective_value,
        },
    )


# Stricter fallback cuts for the Gram rotation.  When the kept directions
# include numerically-null combinations (degenerate operator sets at small
# cutoffs, or very low detector efficiency), the solver can park enormous
# multipliers on them: the pre-combined rotated operators are tiny, so the
# program barely notices, but re-certifying the witness from (H, nu) in the
# original operator basis then loses the objective to cancellation noise.
# Raising the cut prunes those directions and restores conditioning at a
# small cost in expressiveness, so the laddered solve keeps whichever rung
# certifies the largest objective.  A rung ends the ladder when its
# certificate keeps the solver's objective: within _CERT_LOSS_TOL for an
# optimal solve, and within the solve's own gap_tol for a stalled one (gap
# converged, residual parked above tolerance).  A stricter cut can only
# lower the program's optimum, so it has nothing to recover from a rung
# whose certificate loses nothing; a stalled rung that loses more than
# gap_tol to polishing may still be beaten by the next cut.  A rung that
# hit the iteration cap or failed moves on to the next cut, its polished
# witness still in the running.
_CUT_LADDER = (GRAM_NULL_CUT, 1e-8, 1e-6)

# relative slack allowed between an optimal solve's objective and the
# value the polished certificate actually sustains before a stricter cut
# is tried
_CERT_LOSS_TOL = 1e-4


def _solve_witness(measurements, epsilon, gap_tol, max_iter) -> BoundResult:
    best = None
    for cut in _CUT_LADDER:
        program, basis, t_for, rot = _witness_program(measurements, epsilon, cut)
        sol = sdp.solve(program, gap_tol=gap_tol, max_iter=max_iter)
        res = _finish_bound(measurements, epsilon, sol, basis, t_for, rot)
        res.info["null_cut"] = cut
        if best is None or res.linear_objective > best.linear_objective:
            best = res
        loss_tol = {sdp.STATUS_OPTIMAL: _CERT_LOSS_TOL, sdp.STATUS_STALLED: gap_tol}.get(sol.status)
        if loss_tol is not None and res.linear_objective >= sol.objective_value - loss_tol * (
            1.0 + abs(sol.objective_value)
        ):
            break
    return best


def lower_bound_negativity(
    measurements: MeasurementSet, gap_tol: float = 1e-7, max_iter: int = 200
) -> BoundResult:
    """Best certified lower bound from exact expectation values.

    Maximizes the linear objective sum nu_i m_i over feasible witnesses and
    returns log2 of it, clamped below at zero (the trace norm of a partial
    transpose is never below 1).  The returned (H, nu) are polished to be
    feasible on their own, so the bound does not rely on solver internals.
    """
    return _solve_witness(measurements, 0.0, gap_tol, max_iter)


def lower_bound_negativity_robust(
    measurements: MeasurementSet,
    epsilon: float,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
) -> BoundResult:
    """Worst-case bound when each datum n_i may err by a relative epsilon.

    Maximizes sum_i nu_i n_i - epsilon sum_i |nu_i| n_i, valid for any true
    values m_i in [(1-eps) n_i, (1+eps) n_i], including adversarially
    correlated errors.  The identity entry is exact and carries no box.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return lower_bound_negativity(measurements, gap_tol=gap_tol, max_iter=max_iter)
    return _solve_witness(measurements, epsilon, gap_tol, max_iter)


def verify_bound(measurements: MeasurementSet, result: BoundResult, psd_tol: float = TOL_PSD):
    """Re-check the witness inequalities and objective from scratch."""
    space = measurements.space
    d1, d2 = (c + 1 for c in space.cutoffs)
    h = result.witness_H
    nu = result.multipliers
    mats = np.array([op.matrix for op in measurements.operators])
    hpt = fock.partial_transpose_array(h, d1, d2)
    g = hpt - np.tensordot(nu, mats, axes=(0, 0))
    eye = np.eye(space.dim)
    g_min = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])
    h_eigs = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    linear = float(nu @ measurements.expectations)
    if result.error_budget > 0.0:
        mask = np.ones(len(measurements), bool)
        mask[measurements.identity_index] = False
        linear -= result.error_budget * float(
            np.sum(np.abs(nu[mask]) * measurements.expectations[mask])
        )
    recomputed = 0.0 if linear <= 0.0 else max(0.0, math.log2(linear))
    return {
        "matrix_ineq_min_eig": g_min,
        "h_norm": float(np.max(np.abs(h_eigs))),
        "feasible": g_min > -psd_tol and float(np.max(np.abs(h_eigs))) <= 1.0 + psd_tol,
        "linear_objective": linear,
        "recomputed_bound": recomputed,
        "bound_matches": abs(recomputed - result.lower_bound) < 1e-8,
    }


def reconcile_expectations(
    measurements: MeasurementSet, gap_tol: float = 1e-8, max_iter: int = 200
):
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

    Intended for data that is nearly consistent already (detector noise or
    miscalibration); the returned moments are always exactly physical, but
    for grossly inconsistent input the weighted fit may not converge and
    the result is then a best-effort state with a large fit_residual, which
    callers should inspect.
    """
    space = measurements.space
    n = space.dim
    nh = n * n
    mats = np.array([op.matrix for op in measurements.operators])
    mvec = measurements.expectations
    basis = _hermitian_basis(n)
    amat = np.real(np.einsum("iab,kba->ik", mats, basis))
    vecs, sig = _gram_rotation(mats)
    keep = sig > GRAM_NULL_CUT * sig.max()
    # windows narrower than ~1e-9 of the leading direction claim more
    # precision than the truncated operator model carries, and under gross
    # data corruption they push the fit scale past what the interior-point
    # iteration can follow; flooring them keeps the program tame while
    # leaving realistic (noise-level) fits untouched
    sig_eff = np.maximum(sig, 1e-9 * sig.max())

    c = np.zeros(nh + 1)
    c[nh] = -1.0
    fs_psd = np.zeros((nh + 1, n, n), dtype=complex)
    fs_psd[:nh] = -basis
    blocks = [(np.zeros((n, n)), fs_psd)]
    for k in np.nonzero(keep)[0]:
        g = vecs[:, k]
        row = g @ amat
        target = float(g @ mvec)
        for sign in (1.0, -1.0):
            frow = np.zeros((nh + 1, 1, 1))
            frow[:nh, 0, 0] = sign * row
            frow[nh, 0, 0] = -sig_eff[k]
            blocks.append((sign * target * np.ones((1, 1)), frow))
    trace_row = np.zeros((1, nh + 1))
    trace_row[0, :nh] = np.array([np.trace(b).real for b in basis])
    program = sdp.ConicProgram(c, blocks, equalities=(trace_row, np.array([1.0])))
    sol = sdp.solve(program, gap_tol=gap_tol, max_iter=max_iter)

    rho = np.tensordot(sol.y_star[:nh], basis, axes=(0, 0))
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


def apply_phase_noise(det: DetectorConfig, model: PhaseNoiseModel, rng=None):
    """One noise draw for a single detector at its current nominal phase.

    static_calibration returns a DetectorConfig with the perturbed phase;
    phase_averaged returns the LO mixture as a list of (weight, amplitude)
    components.  Zero noise returns the configuration unchanged.
    """
    if rng is None:
        rng = np.random.default_rng(model.seed)
    if model.kind == "static_calibration":
        if model.epsilon == 0.0:
            return det
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta0 = det.lo_phase
        if abs(theta0) < 1e-12:
            theta = sign * model.epsilon / 10.0
        else:
            theta = theta0 * (1.0 + sign * model.epsilon / 10.0)
        return replace(det, lo_phase=theta)
    if model.width == 0.0:
        return det
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
    outcomes: Sequence = DEFAULT_OUTCOMES,
    phases: Sequence[float] = DEFAULT_PHASES,
    rng=None,
    nominal_ops=None,
    robust_epsilon: float = 0.0,
) -> BoundResult:
    """One trial: simulate data under noisy detectors, bound with nominal ones.

    The expectation values come from the true (noise-perturbed) operators
    while the witness program is built on the nominal operators, modeling an
    experimenter unaware of the miscalibration.  The data is first
    reconciled to the nearest physical moment vector (reconcile_expectations);
    without that step the mismatch makes the witness program unbounded.
    """
    if rng is None:
        rng = np.random.default_rng(model.seed)
    cutoff = state.space.cutoffs[0]
    if state.space.cutoffs[1] != cutoff:
        raise ValueError("expected a symmetric bipartite cutoff")
    if model.kind == "static_calibration":
        phases1 = [
            apply_phase_noise(replace(det1, lo_phase=float(p)), model, rng).lo_phase
            for p in phases
        ]
        phases1 = [p if p < math.pi else p - 2.0 * math.pi for p in phases1]
        phases2 = [
            apply_phase_noise(replace(det2, lo_phase=float(p)), model, rng).lo_phase
            for p in phases
        ]
        phases2 = [p if p < math.pi else p - 2.0 * math.pi for p in phases2]
        true_ops = build_measurements(
            det1, det2, outcomes, phases1, signal_cutoff=cutoff, phases2=phases2
        )
    else:
        comps1 = [
            _as_components(apply_phase_noise(replace(det1, lo_phase=float(p)), model, rng))
            for p in phases
        ]
        comps2 = [
            _as_components(apply_phase_noise(replace(det2, lo_phase=float(p)), model, rng))
            for p in phases
        ]
        true_ops = build_measurements(
            det1,
            det2,
            outcomes,
            phases,
            signal_cutoff=cutoff,
            lo_components1=comps1,
            lo_components2=comps2,
        )
    data = simulate_expectations(state, true_ops)
    if nominal_ops is None:
        nominal_ops = build_measurements(det1, det2, outcomes, phases, signal_cutoff=cutoff)
    ms = MeasurementSet(nominal_ops, data)
    ms, fit_info = reconcile_expectations(ms)
    if robust_epsilon > 0.0:
        result = lower_bound_negativity_robust(ms, robust_epsilon)
    else:
        result = lower_bound_negativity(ms)
    result.info["noise_kind"] = model.kind
    result.info["noise_seed"] = model.seed
    result.info["reconciliation"] = fit_info
    return result


def _as_components(noisy):
    if isinstance(noisy, DetectorConfig):
        return [(1.0, noisy.lo_alpha)]
    return noisy


def noise_trials(
    state: TruncatedState,
    det1: DetectorConfig,
    det2: DetectorConfig,
    model: PhaseNoiseModel,
    trials: int = 20,
    **kwargs,
):
    """Repeated noise draws sharing one seeded stream; deterministic."""
    rng = np.random.default_rng(model.seed)
    cutoff = state.space.cutoffs[0]
    nominal_ops = kwargs.pop("nominal_ops", None)
    if nominal_ops is None:
        nominal_ops = build_measurements(
            det1,
            det2,
            kwargs.get("outcomes", DEFAULT_OUTCOMES),
            kwargs.get("phases", DEFAULT_PHASES),
            signal_cutoff=cutoff,
        )
    return [
        noisy_bound(state, det1, det2, model, rng=rng, nominal_ops=nominal_ops, **kwargs)
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


def bound_result_from_json(doc: dict) -> BoundResult:
    h = np.array(doc["witness_H_re"]) + 1j * np.array(doc["witness_H_im"])
    return BoundResult(
        lower_bound=float(doc["lower_bound"]),
        witness_H=h,
        multipliers=np.array(doc["multipliers"]),
        solver_status=doc["solver_status"],
        error_budget=float(doc["error_budget"]),
        degenerate=bool(doc["degenerate"]),
        linear_objective=float(doc["linear_objective"]),
        info=dict(doc.get("info", {})),
    )
