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
from dataclasses import dataclass, replace
from functools import lru_cache
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
    must appear exactly once.  `matrices` stacks the operator matrices: a
    view of the read-only stack when the operators wrap consecutive rows of
    one, as those of build_measurements do, and a copy otherwise.
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
        # every check runs on the stack of the operators up to the first on
        # another space, once per read-only stack (_operator_checks), and
        # the first operator k that fails one is named
        n_same = next((k for k, op in enumerate(operators) if op.space != space), len(operators))
        mats = _rows_of_one_stack([op.matrix for op in operators[:n_same]])
        if mats is None:
            mats = np.array([op.matrix for op in operators[:n_same]])
        herm_dev, w, off_eye = _operator_checks(mats)
        not_herm = herm_dev > 1e-10
        outside = (w[:, 0] < -TOL_PSD) | (w[:, -1] > 1.0 + 1e-8)
        bad = np.flatnonzero(not_herm | outside)
        if bad.size:
            k = bad[0]
            if not_herm[k]:
                raise ValueError(f"operator {k} not Hermitian")
            raise ValueError(f"operator {k} outside [0, I]")
        if n_same < len(operators):
            raise ValueError("operators live on different spaces")
        identity_hits = np.flatnonzero(off_eye < 1e-10)
        if not np.all((expectations >= -1e-10) & (expectations <= 1.0 + 1e-10)):
            raise ValueError("expectations outside [0, 1]")
        if len(identity_hits) != 1:
            raise ValueError("identity operator must appear exactly once")
        self.operators = operators
        self.matrices = mats
        self.expectations = np.clip(expectations, 0.0, 1.0)
        self.identity_index = int(identity_hits[0])
        if abs(self.expectations[self.identity_index] - 1.0) > 1e-10:
            raise ValueError("identity expectation must be 1")

    def __len__(self):
        return len(self.operators)

    @property
    def space(self) -> HilbertSpec:
        return self.operators[0].space


def _rows_of_one_stack(matrices):
    """The matrices as one view of the read-only stack whose consecutive
    rows they are, in order; None when they are not."""
    base = matrices[0].base
    if base is None or base.ndim != 3 or base.flags.writeable:
        return None
    offset = matrices[0].ctypes.data - base.ctypes.data
    start, rest = divmod(offset, base.strides[0])
    rows = base[start : start + len(matrices)]
    if rest or len(rows) != len(matrices):
        return None
    for mat, row in zip(matrices, rows):
        if mat.base is not base or mat.ctypes.data != row.ctypes.data or mat.strides != row.strides:
            return None
    return rows


NOISE_KINDS = ("static_calibration", "phase_averaged")


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Local-oscillator phase noise used when generating data.

    Both kinds shift the LO phase of each nominal setting by offsets drawn
    once per trial.  static_calibration draws one offset: theta = 0 becomes
    +-epsilon/10 and theta = pi/2 becomes (pi/2)(1 +- epsilon/10), signs
    drawn independently per mode and per setting.  phase_averaged replaces
    the LO by an equal-weight mixture of `samples` coherent states with
    phase offsets drawn uniformly from an
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


class BoundResult:
    """Certified lower bound with the witness that proves it.  A plain
    class, as sdp.SdpSolution is: a dataclass takes ~0.3-0.5 ms to create
    at import, and nothing reads its generated methods."""

    def __init__(
        self, lower_bound, witness_H, multipliers, solver_status, error_budget=0.0,
        degenerate=False, linear_objective=0.0, info=None,
    ):
        self.lower_bound = lower_bound
        self.witness_H = witness_H
        self.multipliers = multipliers
        self.solver_status = solver_status
        self.error_budget = error_budget
        self.degenerate = degenerate
        self.linear_objective = linear_objective
        self.info = {} if info is None else info


# ---------------------------------------------------------------------------
# measurement assembly and simulation


def _mode_elements(det, phases, signal_cutoff):
    """Ordered single-mode operator stack: DEFAULT_OUTCOMES within each
    phase setting, shape (len(phases) * len(DEFAULT_OUTCOMES), d, d)."""
    ops = []
    for phase in phases:
        povm = homodyne_povm(replace(det, lo_phase=float(phase)), signal_cutoff)
        row = {e.outcome: k for k, e in enumerate(povm.elements)}
        for beta in DEFAULT_OUTCOMES:
            if beta not in row:
                raise ValueError(f"outcome {beta!r} not produced by the detector")
        ops.append(povm.matrices[[row[beta] for beta in DEFAULT_OUTCOMES]])
    return np.concatenate(ops)


def _products(a, b):
    """The identity, then every product of a row of a with a row of b,
    a-major: FockOperator views of the rows of one read-only
    (1 + P1 P2, d1 d2, d1 d2) stack.  One broadcast multiply forms every
    product, each entry the single product np.kron computes."""
    (p1, d1, _), (p2, d2, _) = a.shape, b.shape
    space = HilbertSpec((d1 - 1, d2 - 1))
    stack = np.empty((1 + p1 * p2, space.dim, space.dim), dtype=complex)
    stack[0] = np.eye(space.dim)
    np.multiply(
        a[:, None, :, None, :, None],
        b[None, :, None, :, None, :],
        out=stack[1:].reshape(p1, p2, d1, d2, d1, d2),
    )
    stack.setflags(write=False)
    return [FockOperator._view(space, mat) for mat in stack]


def build_measurements(
    det1: DetectorConfig,
    det2: DetectorConfig,
    phases: Sequence[float] = DEFAULT_PHASES,
    *,
    signal_cutoff: int = 3,
):
    """All products of the two single-mode click POVM subsets, plus identity.

    Per mode the ordered element list runs over DEFAULT_OUTCOMES (0, 1, 2, 3)
    within each phase setting, e.g. for phases (0, pi/2):
    {P_{0,0}, P_{1,0}, P_{2,0}, P_{3,0}, P_{0,pi/2}, .., P_{3,pi/2}}.
    The joint operator with 1-based index (j, k) sits at list position
    (j-1)*P + k, after the identity at position 0, where P is the per-mode
    element count.  Two equal detectors share one single-mode element list.
    The operators wrap the rows of one read-only stack (_products).
    """
    a = _mode_elements(det1, phases, signal_cutoff)
    b = a if det2 == det1 else _mode_elements(det2, phases, signal_cutoff)
    return _products(a, b)


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


@lru_cache(maxsize=64)
def _hermitian_basis(n: int) -> np.ndarray:
    """Real-linear basis of n x n Hermitian matrices, n^2 elements,
    read-only and built once per n."""
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
    return fock._freeze(basis)


def _per_stack(fn):
    """Compute fn(mats, *args), a tuple of arrays, once per args and per
    read-only operator stack, as MeasurementSet.matrices views
    build_measurements' stack, in the entry that sdp._prepared keeps for
    mats until the stack is collected, so no value may reference the stack.
    An entry keeps fn's value for the latest args alone: the one before is
    dropped before the next is computed, so one witness shape at a time
    stays resident.  mats that are, or view, a writable array are computed
    afresh each call.  The arrays are read-only and computed on one BLAS
    thread, as the solves run."""

    def cached(mats, *args):
        entry = sdp._prepared(mats)
        name = (fn, *args)
        if name not in entry:
            for old in [key for key in entry if key[0] is fn]:
                del entry[old]
            with sdp.one_blas_thread():
                entry[name] = tuple(fock._freeze(a) for a in fn(mats, *args))
        return entry[name]

    return cached


@_per_stack
def _operator_checks(mats):
    """(herm_dev, w, off_eye): max |M - M^H|, the eigenvalues (ascending)
    and max |M - I| of each operator, as MeasurementSet checks them, once
    per operator stack (_per_stack)."""
    herm_dev = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)), axis=(1, 2))
    off_eye = np.max(np.abs(mats - np.eye(len(mats[0]))), axis=(1, 2))
    return herm_dev, np.linalg.eigvalsh(mats), off_eye


@_per_stack
def _gram_rotation(mats: np.ndarray):
    """Eigenbasis of the operator Gram matrix with reliable direction norms.

    Returns (vecs, sig): Gram eigenvectors as columns, and the Frobenius
    norm of each rotated combination sum_i vecs[i, k] M_i measured directly
    in operator space.  Eigenvalues of the Gram matrix bottom out at the
    double-precision noise floor (~1e-14 here), which would misreport
    combination norms below ~1e-7; the direct sum resolves them to ~1e-13
    and lets exactly dependent combinations be recognized as such.  Read-only,
    and computed once per operator stack (_per_stack).
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


@_per_stack
def _rotated_operators(mats: np.ndarray, null_cut: float):
    """(R,): the Gram eigenvectors whose combinations exceed null_cut
    relative to the largest, as columns."""
    vecs, sig = _gram_rotation(mats)
    keep = sig > null_cut * sig.max()
    # mutually orthogonal combinations past the n^2 largest are roundoff,
    # whatever their measured norm; one kept would make block A's columns
    # dependent and leave the objective along the dependence to roundoff
    nh = mats.shape[1] ** 2
    if np.count_nonzero(keep) > nh:
        keep &= sig >= np.sort(sig)[-nh]
    return (vecs[:, keep],)


@_per_stack
def _witness_blocks(mats, d1, d2, null_cut, nt):
    """F columns of the witness blocks A, I - H and I + H over
    y = (H parameters, z, t~) with nt aux variables, for nu = R z as in
    _witness_program: R = _rotated_operators(null_cut), or the identity for
    null_cut None.  Three read-only views of one array."""
    basis = _hermitian_basis(d1 * d2)
    nh = len(basis)
    if null_cut is not None:
        mats = np.einsum("ik,iab->kab", _rotated_operators(mats, null_cut)[0], mats)
    fs = np.zeros((3, nh + len(mats) + nt, d1 * d2, d1 * d2), dtype=complex)
    # A: sum_k h_k B_k^{T1} - sum_i nu_i M_i >= 0, then I -+ H >= 0
    np.negative(fock.partial_transpose_array(basis, d1, d2), out=fs[0, :nh])
    fs[0, nh : nh + len(mats)] = mats
    for k, sign in ((1, 1.0), (2, -1.0)):
        np.multiply(basis, sign, out=fs[k, :nh])
    return tuple(fock._freeze(fs))


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

    What depends on the operators alone is derived once per read-only
    operator stack (_per_stack), for the latest null cut and box count: the
    Gram rotation, R, and the F columns of blocks A, I - H and I + H
    (_witness_blocks), three read-only views of one array.  The solver
    keeps each view's prepared cone in its own sdp._prepared entry, dropped
    with that array.  A trial's program differs from the last only in the
    data-weighted objective and box rows.
    """
    space = measurements.space
    d1, d2 = (c + 1 for c in space.cutoffs)
    n = space.dim
    nh = n * n
    mats = measurements.matrices
    mvec = measurements.expectations

    rot = None if null_cut is None else _rotated_operators(mats, null_cut)[0]
    nk = len(mats) if rot is None else rot.shape[1]
    t_for = _boxed(measurements) if epsilon > 0.0 else np.zeros(0, dtype=np.intp)
    nt = t_for.size
    nvar = nh + nk + nt

    c = np.zeros(nvar)
    c[nh : nh + nk] = mvec if rot is None else rot.T @ mvec
    # aux variables are data-weighted, t~_i = n_i t_i, so they stay O(1)
    # even where the multipliers are huge and the data tiny
    c[nh + nk : nvar] = -epsilon

    fs_a, fs_b, fs_c = _witness_blocks(mats, d1, d2, null_cut, nt)
    blocks = [(np.zeros((n, n)), fs_a), (np.eye(n), fs_b), (np.eye(n), fs_c)]

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

    return sdp.ConicProgram(c, blocks), _hermitian_basis(n), t_for, rot


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

    h = np.tensordot(sol.y_star[:nh], basis, axes=(0, 0))
    h = 0.5 * (h + h.conj().T)
    if rot is None:
        nu = sol.y_star[nh : nh + len(mats)]
    else:
        nu = rot @ sol.y_star[nh : nh + rot.shape[1]]
    h, nu, lmin = _polish_witness(h, nu, mats, measurements.identity_index, d1, d2)
    linear, bound = _certified_objective(nu, mvec, epsilon, t_for)
    # first-order error budget of the kept (H, nu): a datum error d moves
    # the linear objective by at most data_sensitivity * d, an operator
    # error D by at most model_sensitivity * ||D||, since |tr(rho D)| <= ||D||
    weights = np.abs(nu)
    data = float(np.sum(np.delete(weights, measurements.identity_index)))
    excess = max(0.0, linear - 1.0)
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
            "data_sensitivity": data,
            "model_sensitivity": float(weights @ np.abs(_operator_checks(mats)[1]).max(axis=1)),
            "rounding_charge": 2.0**-53 * float(weights @ np.abs(mvec)),
            "zeroing_datum_error": excess and (excess / data if data else math.inf),
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


def _witness_rung(measurements, epsilon, null_cut):
    """One witness solve and its certified bound.  The program goes with
    this call, so the next rung's _witness_blocks frees its arrays."""
    program, basis, t_for, rot = _witness_program(measurements, epsilon, null_cut)
    sol = sdp.solve(program, gap_tol=_WITNESS_GAP_TOL)
    return sol, _finish_bound(measurements, epsilon, sol, basis, t_for, rot)


# the program set-up, the solves and the certification run on one BLAS
# thread: the certified bound then does not depend on the caller's thread
# count, and no idle worker thread spins beside them
@sdp.one_blas_thread()
def _solve_witness(measurements, epsilon) -> BoundResult:
    if epsilon >= DATA_COORDINATES_MIN_EPSILON:
        return _witness_rung(measurements, epsilon, None)[1]
    best = None
    for cut in _CUT_LADDER:
        sol, res = _witness_rung(measurements, epsilon, cut)
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


@_per_stack
def _fit_windows(mats: np.ndarray):
    """The reconcile fit's program data, from the operators alone.

    Returns (weights, fs, rows): the Gram directions u_k above
    GRAM_NULL_CUT divided by their floored norms sig_k, as columns; the F
    columns of the state block over y = (y0, w_1..w_K, v_1..v_K), I, then
    M_k = sum_i weights[i, k] M_i, then zeros; and the F rows of the 1x1
    blocks 1 - sum_k v_k, then v_k - w_k and v_k + w_k per window.
    """
    vecs, sig = _gram_rotation(mats)
    kept = sig > GRAM_NULL_CUT * sig.max()
    # windows narrower than ~1e-9 of the leading direction claim more
    # precision than the truncated operator model carries, and under gross
    # data corruption they push the fit scale past what the interior-point
    # iteration can follow; flooring them keeps the program tame while
    # leaving realistic (noise-level) fits untouched
    weights = vecs[:, kept] / np.maximum(sig, 1e-9 * sig.max())[kept]
    nk, n = weights.shape[1], mats.shape[1]
    fs = np.zeros((1 + 2 * nk, n, n), dtype=complex)
    fs[0] = np.eye(n)
    fs[1 : 1 + nk] = np.einsum("ik,iab->kab", weights, mats)
    eye = np.eye(nk)
    rows = np.zeros((1 + 2 * nk, 1 + 2 * nk))
    rows[0, 1 + nk :] = 1.0
    rows[1::2, 1:] = np.hstack([eye, -eye])
    rows[2::2, 1:] = np.hstack([-eye, -eye])
    return weights, fs, rows


# on one BLAS thread, as the solve runs, so that the fitted moments do not
# depend on the caller's thread count
@sdp.one_blas_thread()
def reconcile_expectations(measurements: MeasurementSet):
    """Fit a physical state to the data and return its exact moments.

    Data recorded with miscalibrated detectors is in general reproducible by
    no state through the nominal operators, and the witness program on it
    is unbounded along near-dependent operator combinations.  This step
    finds the state rho_hat (PSD, unit trace) and the least t with
    |u_k . (tr(M rho_hat) - m)| <= sig_k t for every kept Gram direction
    u_k of norm sig_k, and swaps each datum for tr(rho_hat M_i), achievable
    by construction.  A combination of norm sig_k constrains states only
    through a window of width about sig_k, and the witness multipliers grow
    like 1/sig_k, so the sig-weighted fit keeps the multiplier-weighted
    error uniformly small.  Returns the corrected MeasurementSet and a dict
    with the fit residual t, the largest datum shift, and the fit solve's
    status and iteration count (fit_status, fit_iterations).

    The solver is given the fit's dual, over y0 for the unit trace and
    w_k, v_k >= |w_k| per window, with M_k = sum_i u_ik M_i / sig_k:

        maximize    y0 + sum_k (u_k . m / sig_k) w_k
        subject to  -y0 I - sum_k w_k M_k >= 0,   1 - sum_k v_k >= 0,
                    v_k - w_k >= 0,   v_k + w_k >= 0.

    Its certificate is the fit: rho_hat is the state block's X, and t the X
    of the block 1 - sum_k v_k.  Dividing by sig_k fits the narrow windows
    to the solver's residual tolerance in units of t.  rho_hat is projected
    onto the PSD cone and normalized before its moments replace the data.
    Only the objective depends on the data; the rest is derived once per
    read-only operator stack (_fit_windows), read-only, so the solver keeps
    the state block's prepared cone in the sdp._prepared entry of its F
    array until that array is dropped.

    For grossly inconsistent input the fitted state may lie far from the
    data; its moments are still exactly physical, and callers should
    inspect fit_residual.
    """
    mats = measurements.matrices
    mvec = measurements.expectations
    weights, fs, rows = _fit_windows(mats)
    n, nk = mats.shape[1], weights.shape[1]
    c = np.zeros(len(rows))
    c[0] = 1.0
    c[1 : 1 + nk] = weights.T @ mvec
    blocks = [(np.zeros((n, n)), fs), (np.ones((1, 1)), rows[0, :, None, None])]
    blocks += [(np.zeros((1, 1)), row[:, None, None]) for row in rows[1:]]
    sol = sdp.solve(sdp.ConicProgram(c, blocks), gap_tol=1e-8)

    w, v = np.linalg.eigh(sol.dual_certificate[0])
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    rho /= np.trace(rho).real
    fitted = np.real(np.einsum("iab,ba->i", mats, rho))
    fitted[measurements.identity_index] = 1.0
    info = {
        "fit_residual": float(sol.dual_certificate[1][0, 0]),
        "max_shift": float(np.max(np.abs(fitted - mvec))),
        "fit_status": sol.status,
        "fit_iterations": sol.iterations,
    }
    return MeasurementSet(measurements.operators, fitted), info


# ---------------------------------------------------------------------------
# phase-noise models


def apply_phase_noise(det: DetectorConfig, model: PhaseNoiseModel, rng):
    """One noise draw for a single detector at its current nominal phase.

    Returns the draw's LO phase offsets: one for static_calibration,
    `samples` equally weighted ones for phase_averaged, and [0.0] for zero
    noise.
    """
    if model.kind == "static_calibration":
        if model.epsilon == 0.0:
            return [0.0]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        step = model.epsilon / 10.0
        theta0 = det.lo_phase
        return [sign * step if abs(theta0) < 1e-12 else sign * theta0 * step]
    if model.width == 0.0:
        return [0.0]
    half = math.sqrt(3.0) * model.width if model.width_is_std else model.width / 2.0
    return rng.uniform(-half, half, model.samples)


def _dephased(elements, offsets_per_phase):
    """The single-mode stack of _mode_elements under one noise draw per
    phase setting.

    An LO phase offset delta rotates the signal mode, so each element A of
    a setting becomes the entrywise product A o Phi, with
    Phi_jk = mean_s exp(i delta_s (j - k)) over the setting's offsets,
    formed as V^T conj(V) / N from V[s, j] = exp(i delta_s j).  A zero
    offset leaves every bit."""
    n = np.arange(elements.shape[-1])
    phis = []
    for deltas in offsets_per_phase:
        v = np.exp(1j * np.multiply.outer(deltas, n))
        phis.append(v.T @ v.conj() / len(deltas))
    blocks = elements.reshape(len(phis), -1, *elements.shape[1:])
    return (blocks * np.array(phis)[:, None]).reshape(elements.shape)


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
    experimenter unaware of the miscalibration.  Each noise draw gives the
    LO phase offsets of one mode and setting (apply_phase_noise, mode 1's
    settings first), and the true operators are the products of the
    nominal single-mode elements under those offsets (_dephased).  The
    data is first reconciled to the nearest physical moment vector
    (reconcile_expectations); without that step the mismatch makes the
    witness program unbounded.  info["verified"] records verify_bound's
    verdict on the reconciled set the bound was certified against.
    """
    cutoff = state.space.cutoffs[0]
    if state.space.cutoffs[1] != cutoff:
        raise ValueError("expected a symmetric bipartite cutoff")
    # the data simulation, the reconcile fit and the witness run on one BLAS
    # thread, as the solves do, so that no idle worker thread spins beside them
    with sdp.one_blas_thread():
        offsets1 = [apply_phase_noise(replace(det1, lo_phase=float(p)), model, rng) for p in phases]
        offsets2 = [apply_phase_noise(replace(det2, lo_phase=float(p)), model, rng) for p in phases]
        a = _mode_elements(det1, phases, cutoff)
        b = a if det2 == det1 else _mode_elements(det2, phases, cutoff)
        true_ops = _products(_dephased(a, offsets1), _dephased(b, offsets2))
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
