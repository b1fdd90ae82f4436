"""Truncated Fock-space states and operators for few-mode quantum optics.

Everything is an explicit matrix on a tensor product of truncated
single-mode Fock spaces (per-mode photon-number cutoffs), except that a
pure state keeps its normalised vector and forms its density matrix only
when that is first read (TruncatedState.from_vector).  The module
provides the state families used elsewhere in the package (two-mode
squeezed vacuum, photon-subtracted states), coherent-state amplitudes for
the local oscillator, beam splitter unitaries built exactly on
photon-number sectors, and the package's one partial-transpose map (on
the first mode).  log n! is the logarithm of the exact integer
factorial, so no scipy module is imported.

Basis convention: for cutoffs (c1, c2) the flat index of |n1, n2> is
n1 * (c2 + 1) + n2 (first mode major).  All operations are pure
functions; returned arrays are marked read-only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        return math.prod(self.dims)

    def __eq__(self, other):
        return isinstance(other, HilbertSpec) and self.cutoffs == other.cutoffs

    def __hash__(self):
        return hash(self.cutoffs)


@dataclass(frozen=True, eq=False)
class TruncatedState:
    """Density operator on a truncated Fock space.

    A state built from a matrix holds that matrix; the constructor checks
    it: Hermitian within TOL_HERM, unit trace within TOL_TRACE, eigenvalues
    >= -TOL_PSD.  A pure state (from_vector) holds its normalised vector v
    as ``vector`` (None for a state built from a matrix) and forms the
    matrix np.outer(v, v.conj()) only when ``matrix`` is first read.
    ``support`` and ``entries`` read the nonzero pattern and any entries
    from whichever of the two the state holds, so a reader that needs only
    those never forms the matrix of a pure state.  Every array the state
    holds is read-only.
    """

    space: HilbertSpec
    _matrix: np.ndarray | None
    vector = None  # not a field: from_vector alone sets it

    def __post_init__(self):
        object.__setattr__(self, "_matrix", _freeze(np.array(self._matrix, dtype=complex)))
        self.validate()

    @property
    def matrix(self) -> np.ndarray:
        """The density matrix, read-only; for a pure state formed on first read."""
        if self._matrix is None:
            v = self.vector
            object.__setattr__(self, "_matrix", _freeze(np.outer(v, v.conj())))
        return self._matrix

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

    def support(self):
        """Row and column indices, in row-major order, of entries that hold
        every nonzero entry of the matrix: its nonzero entries, or for a
        pure state every pair of nonzero coordinates of v (a product of two
        of them that underflows to 0 is listed too)."""
        if self.vector is None:
            return np.divmod(np.flatnonzero(self._matrix != 0), self.space.dim)
        nz = np.flatnonzero(self.vector)
        return np.repeat(nz, nz.size), np.tile(nz, nz.size)

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Matrix entries at (rows, cols), integer index arrays that
        broadcast together; a pure state's are v[rows] * v.conj()[cols],
        the products np.outer writes into its matrix, bit for bit."""
        if self.vector is None:
            return self._matrix[rows, cols]
        return self.vector[rows] * self.vector.conj()[cols]

    @classmethod
    def from_vector(cls, space: HilbertSpec, vec: np.ndarray) -> "TruncatedState":
        """Pure state |v><v| / <v|v>, held as the normalised vector v,
        read-only.  Raises ValueError for a non-finite or null vector."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape[0] != space.dim:
            raise ValueError("vector length does not match space dimension")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector has a non-finite entry")
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("null vector")
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "_matrix", None)
        object.__setattr__(obj, "vector", _freeze(v / nrm))
        return obj


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A (not necessarily Hermitian) operator on a truncated Fock space.

    The constructor copies the matrix to complex and marks the copy
    read-only; the caller's array is left as it was."""

    space: HilbertSpec
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        _check_shape(self.space, mat)
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def _view(cls, space: HilbertSpec, matrix: np.ndarray) -> "FockOperator":
        # Wrap, without a copy, a read-only complex matrix the package built,
        # such as one row of a frozen operator stack.
        if matrix.dtype != complex or matrix.flags.writeable:
            raise ValueError("a wrapped operator matrix must be complex and read-only")
        _check_shape(space, matrix)
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "matrix", matrix)
        return obj


def _check_shape(space: HilbertSpec, mat: np.ndarray):
    d = space.dim
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")


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


@lru_cache(maxsize=64)
def log_factorials(cutoff: int) -> np.ndarray:
    """log n! for n = 0..cutoff, read-only: the logarithm of the exact
    integer factorial, correctly rounded through n = 170."""
    return _freeze(np.array([math.log(math.factorial(n)) for n in range(cutoff + 1)]))


def coherent_amplitudes(alpha: complex, cutoff: int):
    """Normalized truncated coherent-state amplitudes and the discarded tail mass.

    Returns (vec, tail) where vec[n] is proportional to alpha^n / sqrt(n!)
    renormalized over n <= cutoff, and tail is the Poisson probability mass
    above the cutoff before renormalization.  Raises ValueError for a
    non-finite alpha.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude {alpha} is not finite")
    if alpha == 0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec, 0.0
    n = np.arange(cutoff + 1)
    logmag = n * np.log(abs(alpha)) - 0.5 * log_factorials(cutoff) - 0.5 * abs(alpha) ** 2
    vec = np.exp(logmag + 1j * n * np.angle(alpha))
    norm_sq = float(np.sum(np.abs(vec) ** 2))
    tail = max(0.0, 1.0 - norm_sq)
    return vec / np.sqrt(norm_sq), tail


@lru_cache(maxsize=64)
def adaptive_lo_cutoff(amplitude: float) -> int:
    """Smallest cutoff (at least 12) with coherent tail mass below TAIL_TOL,
    found once per amplitude.  Raises ValueError for a non-finite
    amplitude."""
    c = 12
    while True:
        _, tail = coherent_amplitudes(abs(amplitude), c)
        if tail <= TAIL_TOL:
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


# ---------------------------------------------------------------------------
# conditional photon subtraction


def photon_subtracted_conditional(state: TruncatedState, params: SubtractionParams):
    """Photon subtraction by a physical beam splitter and a bucket detector.

    Couples the first mode to a vacuum ancilla with a beam splitter of
    intensity transmission T, detects the ancilla with a binary detector of
    efficiency apd_efficiency (binomial loss then "at least one click"),
    renormalizes and traces out the ancilla.

    Returns (conditional_state, heralding_probability).  Raises ValueError
    when the heralding probability falls below PROB_FLOOR.
    """
    if state.space.n_modes != 2:
        raise ValueError("bipartite input state expected")
    c1, c2 = state.space.cutoffs
    dx = c1 + 1

    # U on (subtracted mode, ancilla); the mode keeps T of its intensity.
    pair = HilbertSpec((c1, c1))
    u4 = beam_splitter_unitary(params.transmission, pair).matrix.reshape(dx, dx, dx, dx)

    rho6 = state.matrix.reshape(c1 + 1, c2 + 1, c1 + 1, c2 + 1)
    # Attach the vacuum ancilla implicitly: incoming ancilla index fixed at 0.
    ua = u4[:, :, :, 0]  # [out_mode, out_anc, in_mode]
    # Bucket-detector click weights on the ancilla photon number.
    click = 1.0 - (1.0 - params.apd_efficiency) ** np.arange(dx)
    evolved = np.einsum("PXa,aBcD,QYc->PBXQDY", ua, rho6, ua.conj(), optimize=True)
    # indices: (mode1, mode2, anc | mode1', mode2', anc')
    cond = np.einsum("PBXQDX,X->PBQD", evolved, click, optimize=True)
    p_herald = float(np.real(np.einsum("PBPB->", cond)))
    if p_herald < PROB_FLOOR:
        raise ValueError(f"heralding probability {p_herald:.3e} below {PROB_FLOOR:.1e}")
    d = (c1 + 1) * (c2 + 1)
    mat = cond.reshape(d, d) / p_herald
    mat = 0.5 * (mat + mat.conj().T)
    return TruncatedState(state.space, mat), p_herald


# ---------------------------------------------------------------------------
# partial transpose


def partial_transpose_index(rows: np.ndarray, cols: np.ndarray, d2: int):
    """Coordinates that the first-mode partial transpose moves the entries
    (rows, cols) of a (d1*d2)-square matrix to.  The map is its own inverse,
    so it also gives the source entry of each transposed one."""
    r1, r2 = np.divmod(rows, d2)
    c1, c2 = np.divmod(cols, d2)
    return c1 * d2 + r2, r1 * d2 + c2


def partial_transpose_array(mats: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """First-mode partial transpose of (d1*d2) x (d1*d2) matrices.

    mats may carry any leading batch axes; the last two index the bipartite
    space.  Each entry is gathered through partial_transpose_index.
    """
    rows, cols = partial_transpose_index(*np.indices((d1 * d2, d1 * d2)), d2)
    return mats[..., rows, cols]
