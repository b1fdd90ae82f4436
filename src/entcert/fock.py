"""Truncated Fock-space states and operators for few-mode quantum optics.

Everything is an explicit matrix on a tensor product of truncated
single-mode Fock spaces (per-mode photon-number cutoffs).  The module
provides the state families used elsewhere in the package (coherent
states, two-mode squeezed vacuum, photon-subtracted states), beam
splitter unitaries built exactly on photon-number sectors, and the
standard bipartite primitives (tensor product, partial trace, partial
transpose).

Basis convention: for cutoffs (c1, c2) the flat index of |n1, n2> is
n1 * (c2 + 1) + n2 (first mode major).  All operations are pure
functions; returned arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Numerical contracts shared across the package.
TOL_PSD = 1e-9
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TAIL_TOL = 1e-6
PROB_FLOOR = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HilbertSpec:
    """Ordered per-mode photon-number cutoffs; dimension per mode is cutoff + 1."""

    cutoffs: tuple

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cutoffs)
        if len(cuts) == 0:
            raise ValueError("need at least one mode")
        if any(c < 0 for c in cuts):
            raise ValueError("cutoffs must be >= 0")
        object.__setattr__(self, "cutoffs", cuts)

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dims(self) -> tuple:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def __eq__(self, other):
        return isinstance(other, HilbertSpec) and self.cutoffs == other.cutoffs

    def __hash__(self):
        return hash(self.cutoffs)


@dataclass(frozen=True, eq=False)
class TruncatedState:
    """Density operator on a truncated Fock space.

    Invariants (checked on construction): Hermitian within TOL_HERM,
    unit trace within TOL_TRACE, eigenvalues >= -TOL_PSD.
    """

    space: HilbertSpec
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _freeze(mat))
        self.validate()

    def validate(self):
        mat = self.matrix
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > TOL_HERM:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if w[0] < -TOL_PSD:
            raise ValueError(f"negative eigenvalue {w[0]:.3e} below -{TOL_PSD}")

    @classmethod
    def _trusted(cls, space: HilbertSpec, matrix: np.ndarray) -> "TruncatedState":
        # Bypass the eigenvalue check for matrices PSD by construction.
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "matrix", _freeze(np.asarray(matrix, dtype=complex)))
        return obj

    @classmethod
    def from_vector(cls, space: HilbertSpec, vec: np.ndarray) -> "TruncatedState":
        """Pure-state density matrix |v><v| / <v|v>."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape[0] != space.dim:
            raise ValueError("vector length does not match space dimension")
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("null vector")
        v = v / nrm
        return cls._trusted(space, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A (not necessarily Hermitian) operator on a truncated Fock space."""

    space: HilbertSpec
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")
        object.__setattr__(self, "matrix", _freeze(mat))


@dataclass(frozen=True)
class SqueezedParams:
    """Two-mode squeezed vacuum parameters: squeezing lambda in [0, 1), per-mode cutoff."""

    lam: float
    n_max: int

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise ValueError("lambda must lie in [0, 1)")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


@dataclass(frozen=True)
class SubtractionParams:
    """Subtraction beam splitter transmission and effective APD efficiency, both in (0, 1]."""

    transmission: float
    apd_efficiency: float

    def __post_init__(self):
        if not (0.0 < self.transmission <= 1.0):
            raise ValueError("transmission must lie in (0, 1]")
        if not (0.0 < self.apd_efficiency <= 1.0):
            raise ValueError("apd_efficiency must lie in (0, 1]")


# ---------------------------------------------------------------------------
# state families


def coherent_amplitudes(alpha: complex, cutoff: int):
    """Normalized truncated coherent-state amplitudes and the discarded tail mass.

    Returns (vec, tail) where vec[n] is proportional to alpha^n / sqrt(n!)
    renormalized over n <= cutoff, and tail is the Poisson probability mass
    above the cutoff before renormalization.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    alpha = complex(alpha)
    if alpha == 0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec, 0.0
    n = np.arange(cutoff + 1)
    logmag = n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    vec = np.exp(logmag + 1j * n * np.angle(alpha))
    norm_sq = float(np.sum(np.abs(vec) ** 2))
    tail = max(0.0, 1.0 - norm_sq)
    return vec / np.sqrt(norm_sq), tail


def coherent_state(alpha: complex, cutoff: int, tail_tol: float = TAIL_TOL):
    """Truncated, renormalized coherent state |alpha>.

    Returns (state, tail).  Raises ValueError when the discarded Poisson
    tail mass exceeds tail_tol, signalling a cutoff too small for |alpha|.
    """
    vec, tail = coherent_amplitudes(alpha, cutoff)
    if tail > tail_tol:
        raise ValueError(
            f"coherent-state tail mass {tail:.3e} exceeds {tail_tol:.1e}; "
            f"raise the cutoff for |alpha| = {abs(alpha):.3g}"
        )
    space = HilbertSpec((cutoff,))
    return TruncatedState.from_vector(space, vec), tail


def adaptive_lo_cutoff(amplitude: float, minimum: int = 12, tail_tol: float = TAIL_TOL) -> int:
    """Smallest cutoff (at least `minimum`) with coherent tail mass below tail_tol."""
    c = max(int(minimum), 0)
    while True:
        _, tail = coherent_amplitudes(abs(amplitude), c)
        if tail <= tail_tol:
            return c
        c += 1


def two_mode_squeezed(params: SqueezedParams) -> TruncatedState:
    """Truncated two-mode squeezed vacuum, sqrt(1 - lambda^2) sum_n lambda^n |n, n>."""
    n_max = params.n_max
    d = n_max + 1
    vec = np.zeros(d * d, dtype=complex)
    for n in range(d):
        vec[n * d + n] = params.lam ** n
    space = HilbertSpec((n_max, n_max))
    return TruncatedState.from_vector(space, vec)


def photon_subtracted_ideal(params: SqueezedParams, transmission: float) -> TruncatedState:
    """Ideal single-photon-subtracted squeezed vacuum.

    Pure state with unnormalized coefficients (lambda * T)^n sqrt(n) on
    |n - 1, n> for n = 1 .. n_max, then normalized.
    """
    if not (0.0 < transmission <= 1.0):
        raise ValueError("transmission must lie in (0, 1]")
    q = params.lam * transmission
    if q == 0.0:
        raise ValueError("lambda * T = 0: no photon to subtract, state is null")
    n_max = params.n_max
    d = n_max + 1
    vec = np.zeros(d * d, dtype=complex)
    for n in range(1, n_max + 1):
        vec[(n - 1) * d + n] = q ** n * np.sqrt(n)
    space = HilbertSpec((n_max, n_max))
    return TruncatedState.from_vector(space, vec)


# ---------------------------------------------------------------------------
# beam splitter


def _sector_unitary(chi: float, total_n: int) -> np.ndarray:
    """Exact exp(i chi (b†a + a†b)) on the full total-photon-number sector.

    Basis |m, N - m>, m = 0 .. N.  The generator is real symmetric
    tridiagonal with couplings sqrt((m + 1)(N - m)).
    """
    n = total_n + 1
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    m = np.arange(total_n)
    off = np.sqrt((m + 1.0) * (total_n - m))
    gen = np.diag(off, 1) + np.diag(off, -1)
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(1j * chi * w)) @ v.T


def beam_splitter_unitary(reflectivity: float, space: HilbertSpec) -> FockOperator:
    """Beam splitter exp(i chi (b†a + a†b)) with chi = arccos(sqrt(R)) on a two-mode space.

    Built sector by sector in total photon number, so blocks fully inside
    the cutoffs are exactly unitary; boundary blocks are the projection of
    the exact untruncated unitary onto the retained space.  Each mode
    keeps a fraction R of its intensity in its own output arm.
    """
    if space.n_modes != 2:
        raise ValueError("beam splitter needs a two-mode space")
    if not (0.0 <= reflectivity <= 1.0):
        raise ValueError("reflectivity must lie in [0, 1]")
    c1, c2 = space.cutoffs
    d2 = c2 + 1
    chi = float(np.arccos(np.sqrt(reflectivity)))
    u = np.zeros((space.dim, space.dim), dtype=complex)
    for total in range(c1 + c2 + 1):
        u_sec = _sector_unitary(chi, total)
        ms = [m for m in range(total + 1) if m <= c1 and total - m <= c2]
        idx = np.array([m * d2 + (total - m) for m in ms])
        sub = np.ix_(ms, ms)
        u[np.ix_(idx, idx)] = u_sec[sub]
    return FockOperator(space, u)


def unitarity_deficit(op: FockOperator) -> float:
    """Max |U†U - I| on the subspace of total photon number <= min(cutoffs)."""
    if op.space.n_modes != 2:
        raise ValueError("two-mode operator expected")
    c1, c2 = op.space.cutoffs
    interior = min(c1, c2)
    idx = [
        n1 * (c2 + 1) + n2
        for n1 in range(c1 + 1)
        for n2 in range(c2 + 1)
        if n1 + n2 <= interior
    ]
    g = op.matrix.conj().T @ op.matrix
    g = g[np.ix_(idx, idx)] - np.eye(len(idx))
    return float(np.max(np.abs(g)))


def phase_rotation(phi: float, cutoff: int) -> FockOperator:
    """Single-mode Fock-basis phase rotation diag(e^{i n phi})."""
    n = np.arange(cutoff + 1)
    return FockOperator(HilbertSpec((cutoff,)), np.diag(np.exp(1j * n * phi)))


# ---------------------------------------------------------------------------
# conditional photon subtraction


def photon_subtracted_conditional(state: TruncatedState, params: SubtractionParams, mode: int = 0):
    """Photon subtraction by a physical beam splitter and a bucket detector.

    Couples the chosen mode (default: the first) to a vacuum ancilla with a
    beam splitter of intensity transmission T, detects the ancilla with a
    binary detector of efficiency apd_efficiency (binomial loss then
    "at least one click"), renormalizes and traces out the ancilla.

    Returns (conditional_state, heralding_probability).  Raises ValueError
    when the heralding probability falls below PROB_FLOOR.
    """
    if state.space.n_modes != 2:
        raise ValueError("bipartite input state expected")
    if mode not in (0, 1):
        raise ValueError("mode must be 0 or 1")
    c1, c2 = state.space.cutoffs
    c_sub = state.space.cutoffs[mode]
    dx = c_sub + 1

    # U on (subtracted mode, ancilla); the mode keeps T of its intensity.
    pair = HilbertSpec((c_sub, c_sub))
    u4 = beam_splitter_unitary(params.transmission, pair).matrix.reshape(dx, dx, dx, dx)

    rho6 = state.matrix.reshape(c1 + 1, c2 + 1, c1 + 1, c2 + 1)
    # Attach the vacuum ancilla implicitly: incoming ancilla index fixed at 0.
    ua = u4[:, :, :, 0]  # [out_mode, out_anc, in_mode]
    # Bucket-detector click weights on the ancilla photon number.
    click = 1.0 - (1.0 - params.apd_efficiency) ** np.arange(dx)
    if mode == 0:
        evolved = np.einsum("PXa,aBcD,QYc->PBXQDY", ua, rho6, ua.conj(), optimize=True)
        # indices: (mode1, mode2, anc | mode1', mode2', anc')
        cond = np.einsum("PBXQDX,X->PBQD", evolved, click, optimize=True)
    else:
        evolved = np.einsum("PXb,AbCd,QYd->APXCQY", ua, rho6, ua.conj(), optimize=True)
        cond = np.einsum("APXCQX,X->APCQ", evolved, click, optimize=True)
    p_herald = float(np.real(np.einsum("PBPB->", cond)))
    if p_herald < PROB_FLOOR:
        raise ValueError(f"heralding probability {p_herald:.3e} below {PROB_FLOOR:.1e}")
    d = (c1 + 1) * (c2 + 1)
    mat = cond.reshape(d, d) / p_herald
    mat = 0.5 * (mat + mat.conj().T)
    return TruncatedState(state.space, mat), p_herald


# ---------------------------------------------------------------------------
# bipartite primitives


def tensor(a, b):
    """Tensor product of states or operators; spaces concatenate."""
    space = HilbertSpec(a.space.cutoffs + b.space.cutoffs)
    mat = np.kron(a.matrix, b.matrix)
    if isinstance(a, TruncatedState) and isinstance(b, TruncatedState):
        return TruncatedState._trusted(space, mat)
    return FockOperator(space, mat)


def partial_transpose_array(
    mats: np.ndarray, d1: int, d2: int, subsystem: int = 0
) -> np.ndarray:
    """Transpose the indices of one subsystem of (d1*d2) x (d1*d2) matrices.

    mats may carry any leading batch axes; the last two index the bipartite
    space with the first subsystem's index running slowest.
    """
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    lead = mats.shape[:-2]
    t = mats.reshape(*lead, d1, d2, d1, d2)
    t = np.swapaxes(t, -4, -2) if subsystem == 0 else np.swapaxes(t, -3, -1)
    return t.reshape(*lead, d1 * d2, d1 * d2)


def partial_transpose(op, subsystem: int = 0) -> FockOperator:
    """Transpose the indices of one subsystem of a bipartite operator."""
    if op.space.n_modes != 2:
        raise ValueError("partial transpose needs a bipartite space")
    return FockOperator(op.space, partial_transpose_array(op.matrix, *op.space.dims, subsystem))


def partial_trace(state: TruncatedState, keep) -> TruncatedState:
    """Reduced state on the kept modes (0-based indices, ascending order)."""
    keep = sorted(set(int(k) for k in keep))
    n = state.space.n_modes
    if len(keep) == 0:
        raise ValueError("keep must name at least one mode")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range")
    dims = state.space.dims
    t = state.matrix.reshape(*dims, *dims)
    traced = 0
    for m in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=m, axis2=m + (n - traced))
        traced += 1
    d = int(np.prod([dims[k] for k in keep]))
    out_space = HilbertSpec(tuple(state.space.cutoffs[k] for k in keep))
    return TruncatedState._trusted(out_space, t.reshape(d, d))


def expectation(state: TruncatedState, op: FockOperator) -> complex:
    """Tr(rho M)."""
    if state.space.dim != op.space.dim:
        raise ValueError("dimension mismatch")
    return complex(np.trace(state.matrix @ op.matrix))


def trace_distance(a: TruncatedState, b: TruncatedState) -> float:
    """(1/2) || rho - sigma ||_1 for Hermitian inputs."""
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(w)))
