"""Time-multiplexed click detector and weak-homodyne POVM model.

A time-multiplexed detector (TMD) splits a pulse evenly over `bins` modes
read by binary avalanche photodiodes; the click-count statistics are
k = C L r with L a binomial loss matrix and C the bin-occupancy convolution
matrix.  A weak homodyne detector interferes the signal with a coherent
local oscillator (LO) on a beam splitter of reflectivity R and reads the
signal-aligned output arm with one TMD; the LO arm is not read.  The
signal-mode POVM element for click count k at setting gamma is

    Pi_{k,gamma} = Tr_LO[ (|alpha><alpha| (x) 1) U† (1 (x) Pi_k) U ]

which reproduces Tr(rho Pi_{k,gamma}) for every signal state rho, with
bins + 1 outcomes per setting.  The LO is always a list of coherent
components (w_j, alpha_j) with sum_j w_j = 1, a pure LO being one
component; the element is linear in the LO state, so

    Pi_{k,gamma} = sum_j w_j Tr_LO[ (|alpha_j><alpha_j| (x) 1) U† (1 (x) Pi_k) U ]

on one LO cutoff chosen for the largest |alpha_j|.  Every LO is contracted
through its density matrix sigma = sum_j w_j |alpha_j><alpha_j|: each
output photon pair (na, nb) carries the signal operator U_r† sigma U_r, and
the elements are click-weighted sums of those, so the contraction costs the
same for any component count.  Wigner functions of POVM elements are
evaluated from the Fock-basis displacement kernel (associated Laguerre
polynomials).  Every binomial coefficient, in the loss and convolution
matrices and in the Laguerre polynomials, comes from one exact Pascal
table, and log n! from fock.log_factorials, so no scipy module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    TOL_PSD,
    FockOperator,
    HilbertSpec,
    adaptive_lo_cutoff,
    beam_splitter_unitary,
    coherent_amplitudes,
    log_factorials,
)

TOL_COMPLETE = 1e-6


@dataclass(frozen=True)
class TmdConfig:
    """Bin count and detection efficiency; the bins are equally likely."""

    bins: int = 8
    efficiency: float = 1.0

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class DetectorConfig:
    """One weak-homodyne setting: LO amplitude/phase, BS reflectivity and
    the TMD on the signal-aligned arm.

    R is the fraction of signal intensity reaching that arm.
    """

    lo_amplitude: float
    lo_phase: float
    reflectivity: float
    tmd: TmdConfig

    def __post_init__(self):
        if not (0.0 <= self.lo_amplitude < np.inf):
            raise ValueError("lo_amplitude must be finite and >= 0")
        if not np.isfinite(self.lo_phase):
            raise ValueError("lo_phase must be finite")
        if not (0.0 <= self.reflectivity <= 1.0):
            raise ValueError("reflectivity must lie in [0, 1]")
        object.__setattr__(self, "lo_phase", float(np.mod(self.lo_phase, 2.0 * np.pi)))

    @property
    def lo_alpha(self) -> complex:
        return self.lo_amplitude * np.exp(1j * self.lo_phase)


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One click count: PSD operator with spectrum in [0, 1] on the signal mode."""

    outcome: int
    setting: object
    operator: FockOperator

    def __post_init__(self):
        w = np.linalg.eigvalsh(0.5 * (self.operator.matrix + self.operator.matrix.conj().T))
        if w[0] < -TOL_PSD:
            raise ValueError(f"POVM element not PSD: min eigenvalue {w[0]:.3e}")
        if w[-1] > 1.0 + 1e-8:
            raise ValueError(f"POVM element norm {w[-1]:.10f} exceeds 1")


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Outcome elements of one setting; must sum to the identity within TOL_COMPLETE."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) == 0:
            raise ValueError("empty POVM")
        deficit = self.completeness_deficit()
        if deficit > TOL_COMPLETE:
            raise ValueError(f"POVM completeness deficit {deficit:.3e} exceeds {TOL_COMPLETE:.1e}")

    @property
    def setting(self):
        return self.elements[0].setting

    def completeness_deficit(self) -> float:
        total = sum(e.operator.matrix for e in self.elements)
        return float(np.max(np.abs(total - np.eye(total.shape[0]))))


# ---------------------------------------------------------------------------
# click statistics


@lru_cache(maxsize=64)
def _binomials(n_max: int) -> np.ndarray:
    """binom[n][j] = Binom(n, j) for n, j <= n_max, zero for j > n, read-only.

    Pascal's rule adds integers, so every entry is exact while it stays
    below 2^53 (n_max <= 56)."""
    binom = np.zeros((n_max + 1, n_max + 1))
    binom[:, 0] = 1.0
    for n in range(1, n_max + 1):
        binom[n, 1:] = binom[n - 1, 1:] + binom[n - 1, :-1]
    binom.setflags(write=False)
    return binom


def loss_matrix(n_in: int, efficiency: float) -> np.ndarray:
    """L[m][n] = Binom(n, m) eta^m (1 - eta)^(n - m); columns sum to 1."""
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    n = np.arange(n_in + 1)
    m = n[:, None]
    surv = np.where(m <= n[None, :], n[None, :] - m, 0)
    mat = _binomials(n_in).T * efficiency**m * (1.0 - efficiency) ** surv
    return np.where(m <= n[None, :], mat, 0.0)


def convolution_matrix(config: TmdConfig, n_max_photons: int) -> np.ndarray:
    """C[k][n] = P(n photons, thrown independently over the B equally
    likely bins, occupy exactly k distinct bins).

    C[k][n] is the coefficient of t^k x^n/n! in the generating function
    (1 + t (exp(x/B) - 1))^B.  Multiplying in one bin adds
    sum_{m>=1} binom(n, m) B^-m C[k-1][n-m] to C[k][n], the same matrix for
    every bin, so the cost is O(B^2 n^2) and every term is nonnegative.
    """
    n_dim = n_max_photons + 1
    binom = _binomials(n_max_photons)
    taken = np.subtract.outer(np.arange(n_dim), np.arange(n_dim))
    # add[n][j] = binom(n, j) q^(n - j): the new bin takes n - j >= 1 photons
    q = 1.0 / config.bins
    add = np.where(taken > 0, binom * q ** np.maximum(taken, 0), 0.0)
    c = np.zeros((config.bins + 1, n_dim))
    c[0, 0] = 1.0
    for _ in range(config.bins):
        c[1:] += c[:-1] @ add.T
    return c


def click_matrix(config: TmdConfig, cutoff: int) -> np.ndarray:
    """(C L)[k][n]: probability of k clicks given n incident photons."""
    return convolution_matrix(config, cutoff) @ loss_matrix(cutoff, config.efficiency)


# ---------------------------------------------------------------------------
# weak homodyne POVM


@lru_cache(maxsize=64)
def _bs_columns(reflectivity: float, lo_cutoff: int, signal_cutoff: int) -> np.ndarray:
    """Beam splitter columns for inputs (a <= lo_cutoff photons in the LO
    mode, b <= signal_cutoff in the signal mode), rows on the padded output
    space with per-mode cutoff lo_cutoff + signal_cutoff.  An input carries
    at most that cutoff in total, and the padded space holds every output
    of such a photon-number sector, so the columns are exact and
    orthonormal."""
    d_pad = lo_cutoff + signal_cutoff + 1
    u = beam_splitter_unitary(reflectivity, HilbertSpec((d_pad - 1, d_pad - 1))).matrix
    cols = (np.arange(lo_cutoff + 1)[:, None] * d_pad + np.arange(signal_cutoff + 1)).ravel()
    out = u[:, cols]
    out.setflags(write=False)
    return out


def homodyne_povm(
    det: DetectorConfig,
    signal_cutoff: int,
    lo_components=None,
) -> PovmSet:
    """Signal-mode POVM of one weak-homodyne setting: one element per
    click count 0..bins of the TMD on the signal-aligned arm.

    The LO is a list of coherent components, given as (weight, complex
    amplitude) pairs with finite nonnegative weights summing to 1 and
    finite amplitudes; None means the pure LO [(1.0, det.lo_alpha)].  One
    LO cutoff, chosen by adaptive_lo_cutoff for the largest amplitude,
    keeps every component's tail mass below TAIL_TOL.  PovmSet raises when
    the POVM misses completeness by more than TOL_COMPLETE.

    Every LO, pure or mixed, is contracted through its density matrix:
    s = sum_k w_k conj(v_k) v_k^T (transposed); q[na, nb] = U_r^H s U_r,
    with U_r the (LO, signal) -> output columns of output pair
    r = (na, nb), is the signal operator that output pair carries; and each
    element is a click-weighted sum of the q blocks over the unread LO-arm
    count na.  One batched matmul covers all output photon pairs and one
    product all outcomes, whatever the component count.
    """
    if lo_components is None:
        lo_components = [(1.0, det.lo_alpha)]
    weights = np.array([w for w, _ in lo_components], dtype=float)
    amps = np.array([a for _, a in lo_components], dtype=complex)
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-10):
        raise ValueError("LO component weights must be nonnegative and sum to 1")
    if not np.all(np.isfinite(amps)):
        raise ValueError("LO component amplitudes must be finite")
    lo_cutoff = adaptive_lo_cutoff(np.max(np.abs(amps)))

    pad = lo_cutoff + signal_cutoff
    d_pad, d_sig = pad + 1, signal_cutoff + 1
    clicks = click_matrix(det.tmd, pad)

    u_cols = _bs_columns(float(det.reflectivity), lo_cutoff, int(signal_cutoff))
    u_r = u_cols.reshape(d_pad * d_pad, lo_cutoff + 1, d_sig)
    # a zero-weight component is no part of the LO state: dropping it keeps
    # the shape of the product below, and with it OpenBLAS's choice of
    # kernel, the same as for the LO without it
    kept = weights > 0
    vecs = np.array([coherent_amplitudes(a, lo_cutoff)[0] for a in amps[kept]])
    s = (vecs.conj().T * weights[kept]) @ vecs
    q = (u_r.conj().transpose(0, 2, 1) @ (s @ u_r)).reshape(d_pad, d_pad, d_sig, d_sig)
    ops = (clicks @ q.sum(axis=0).reshape(d_pad, -1)).reshape(-1, d_sig, d_sig)

    space = HilbertSpec((signal_cutoff,))
    elements = []
    for outc, op in enumerate(ops):
        op = 0.5 * (op + op.conj().T)
        elements.append(PovmElement(outc, det, FockOperator(space, op)))
    return PovmSet(tuple(elements))


# ---------------------------------------------------------------------------
# Wigner functions


def _genlaguerre(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """Associated Laguerre polynomial L_n^(k)(x) for integers n, k >= 0,
    by the three-term recurrence that scipy's eval_genlaguerre runs for an
    integer degree, in the same order of operations.  The binomial
    Binom(n + k, n) is exact here, and equal to scipy's for n + k <= 30."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + k + 1.0
    d = -x / (k + 1.0)
    p = d + 1.0
    for j in range(1, n):
        d = -x / (j + k + 1.0) * p + (j / (j + k + 1.0)) * d
        p = d + p
    return _binomials(n + k)[n + k, n] * p


def _disp_element(n_row: int, m_col: int, beta: np.ndarray, abs2: np.ndarray) -> np.ndarray:
    """<n|D(beta)|m> on arrays of beta, via the associated Laguerre form."""
    log_fact = log_factorials(max(n_row, m_col))
    if n_row >= m_col:
        k = n_row - m_col
        pref = np.exp(0.5 * (log_fact[m_col] - log_fact[n_row]))
        lag = _genlaguerre(m_col, k, abs2)
        return pref * beta**k * np.exp(-0.5 * abs2) * lag
    k = m_col - n_row
    pref = np.exp(0.5 * (log_fact[n_row] - log_fact[m_col]))
    lag = _genlaguerre(n_row, k, abs2)
    return pref * (-np.conj(beta)) ** k * np.exp(-0.5 * abs2) * lag


def wigner_of_operator(op: FockOperator, xs, ps) -> np.ndarray:
    """W(x, p) of a single-mode operator on a grid; W[i, j] = W(xs[i], ps[j]).

    Normalization: for a density matrix the grid integrates to 1 and the
    vacuum gives W(0, 0) = 1/pi; alpha = (x + i p) / sqrt(2).
    """
    if op.space.n_modes != 1:
        raise ValueError("single-mode operator expected")
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    rho = op.matrix
    d = rho.shape[0]
    beta = np.sqrt(2.0) * (xs[:, None] + 1j * ps[None, :])  # 2 alpha
    abs2 = np.abs(beta) ** 2
    w = np.zeros(beta.shape, dtype=complex)
    for m in range(d):
        for n in range(d):
            if rho[m, n] == 0:
                continue
            w += rho[m, n] * (-1.0) ** m * _disp_element(n, m, beta, abs2)
    return np.real(w) / np.pi


# ---------------------------------------------------------------------------
# serialization


def _complex_matrix_to_json(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def povm_set_to_json(povm: PovmSet) -> dict:
    """Structured JSON document of a weak-homodyne POVM: the DetectorConfig
    under "kind": "homodyne", and each element's outcome with its row-major
    [re, im] matrix."""
    setting = povm.setting
    return {
        "setting": {
            "kind": "homodyne",
            "lo_amplitude": setting.lo_amplitude,
            "lo_phase": setting.lo_phase,
            "reflectivity": setting.reflectivity,
            "tmd": {"bins": setting.tmd.bins, "efficiency": setting.tmd.efficiency},
        },
        "elements": [
            {
                "outcome": e.outcome,
                "matrix": _complex_matrix_to_json(e.operator.matrix),
            }
            for e in povm.elements
        ],
    }
