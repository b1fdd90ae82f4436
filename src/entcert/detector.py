"""Time-multiplexed click detector and weak-homodyne POVM model.

A time-multiplexed detector (TMD) splits a pulse over `bins` modes read by
binary avalanche photodiodes; the click-count statistics are k = C L r with
L a binomial loss matrix and C the bin-occupancy convolution matrix.  A weak
homodyne detector interferes the signal with a coherent local oscillator
(LO) on a beam splitter of reflectivity R and reads the two output arms with
TMDs.  The signal-mode POVM element for click outcome beta at setting gamma
is

    Pi_{beta,gamma} = Tr_LO[ (|alpha><alpha| (x) 1) U† (Pi_c (x) Pi_d) U ]

which reproduces Tr(rho Pi_{beta,gamma}) for every signal state rho.  The LO
is always a list of coherent components (w_k, alpha_k) with sum_k w_k = 1,
a pure LO being one component; the element is linear in the LO state, so

    Pi_{beta,gamma} = sum_k w_k Tr_LO[ (|alpha_k><alpha_k| (x) 1) U† (Pi_c (x) Pi_d) U ]

on one LO cutoff chosen for the largest |alpha_k|.  A mixture is contracted
through the LO density matrix sigma = sum_k w_k |alpha_k><alpha_k|: each
output photon pair (na, nb) carries the signal operator U_r† sigma U_r, and
the elements are click-weighted sums of those, so the contraction costs the
same for any component count.  A one-component LO is contracted through its
amplitudes instead, which gives the same elements to roundoff; it keeps that
path because the robust witness rows are sensitive to roundoff in the
operators (see homodyne_povm).  In the unbalanced configuration the LO-arm
detector efficiency is set to zero and outcomes carry the live detector's
click count only (bins + 1 outcomes per setting).  Wigner functions of POVM
elements are evaluated from the Fock-basis displacement kernel (associated
Laguerre polynomials).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import comb, eval_genlaguerre, gammaln

from .fock import (
    TOL_PSD,
    FockOperator,
    HilbertSpec,
    adaptive_lo_cutoff,
    beam_splitter_unitary,
    coherent_amplitudes,
)

TOL_COMPLETE = 1e-6


@dataclass(frozen=True)
class TmdConfig:
    """Bin count, detection efficiency and optional per-bin splitting probabilities."""

    bins: int = 8
    efficiency: float = 1.0
    bin_probabilities: tuple | None = None

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")
        if self.bin_probabilities is not None:
            q = tuple(float(x) for x in self.bin_probabilities)
            if len(q) != self.bins:
                raise ValueError("bin_probabilities length must equal bins")
            if any(x < 0 for x in q):
                raise ValueError("bin_probabilities must be nonnegative")
            if abs(sum(q) - 1.0) > 1e-12:
                raise ValueError("bin_probabilities must sum to 1")
            object.__setattr__(self, "bin_probabilities", q)

    @property
    def probabilities(self) -> np.ndarray:
        if self.bin_probabilities is None:
            return np.full(self.bins, 1.0 / self.bins)
        return np.asarray(self.bin_probabilities)


@dataclass(frozen=True)
class DetectorConfig:
    """One weak-homodyne setting: LO amplitude/phase, BS reflectivity, two TMDs.

    R is the fraction of signal intensity reaching the live (tmd_c) detector
    arm.  With `unbalanced` set, the LO-arm detector (tmd_d) is treated as
    having zero efficiency and outcomes are single click counts.
    """

    lo_amplitude: float
    lo_phase: float
    reflectivity: float
    tmd_c: TmdConfig
    tmd_d: TmdConfig
    unbalanced: bool = True

    def __post_init__(self):
        if self.lo_amplitude < 0:
            raise ValueError("lo_amplitude must be >= 0")
        if not (0.0 <= self.reflectivity <= 1.0):
            raise ValueError("reflectivity must lie in [0, 1]")
        object.__setattr__(self, "lo_phase", float(np.mod(self.lo_phase, 2.0 * np.pi)))

    @property
    def lo_alpha(self) -> complex:
        return self.lo_amplitude * np.exp(1j * self.lo_phase)


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One detector outcome: PSD operator with spectrum in [0, 1] on the signal mode."""

    outcome: object
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


def loss_matrix(n_in: int, efficiency: float) -> np.ndarray:
    """L[m][n] = Binom(n, m) eta^m (1 - eta)^(n - m); columns sum to 1."""
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    n = np.arange(n_in + 1)
    m = n[:, None]
    surv = np.where(m <= n[None, :], n[None, :] - m, 0)
    mat = comb(n[None, :], m) * efficiency**m * (1.0 - efficiency) ** surv
    return np.where(m <= n[None, :], mat, 0.0)


def convolution_matrix(config: TmdConfig, n_max_photons: int) -> np.ndarray:
    """C[k][n] = P(n photons, thrown independently over the bins, occupy
    exactly k distinct bins).

    C[k][n] is the coefficient of t^k x^n/n! in the generating function
    prod_b (1 + t (exp(q_b x) - 1)).  Multiplying in one bin at a time adds
    sum_{m>=1} binom(n, m) q_b^m C[k-1][n-m] to C[k][n], so the cost is
    O(bins^2 n^2) and every term is nonnegative.
    """
    n_dim = n_max_photons + 1
    # Pascal's rule, exact in floating point while the entries stay below 2^53
    binom = np.zeros((n_dim, n_dim))
    binom[:, 0] = 1.0
    for n in range(1, n_dim):
        binom[n, 1:] = binom[n - 1, 1:] + binom[n - 1, :-1]
    taken = np.subtract.outer(np.arange(n_dim), np.arange(n_dim))
    c = np.zeros((config.bins + 1, n_dim))
    c[0, 0] = 1.0
    for q in config.probabilities:
        # add[n][j] = binom(n, j) q^(n - j): the new bin takes n - j >= 1 photons
        add = np.where(taken > 0, binom * q ** np.maximum(taken, 0), 0.0)
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
    """Signal-mode POVM of one weak-homodyne setting.

    The LO is a list of coherent components, given as (weight, complex
    amplitude) pairs with nonnegative weights summing to 1; None means the
    pure LO [(1.0, det.lo_alpha)].  One LO cutoff, chosen by
    adaptive_lo_cutoff for the largest amplitude, keeps every component's
    tail mass below TAIL_TOL.  PovmSet raises when the POVM misses
    completeness by more than TOL_COMPLETE.

    Each element is linear in the LO state, so a mixture gives
    Pi_beta = sum_k w_k Pi_beta(alpha_k).  The path follows the component
    count:
    - more than one component (a phase-averaged LO): through the LO
      density matrix, with one batched matmul for the operators of all
      output photon pairs and one product over all outcomes;
    - one component (the pure LO, a static phase error, every table and
      model build): one einsum per outcome over the output amplitudes.
      The density-matrix path would move these elements by ~1e-16, and
      that roundoff alone turns robust table rows from optimal to stalled.
    """
    if lo_components is None:
        lo_components = [(1.0, det.lo_alpha)]
    weights = np.array([w for w, _ in lo_components], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError("LO component weights must be nonnegative and sum to 1")
    lo_cutoff = adaptive_lo_cutoff(max(abs(a) for _, a in lo_components))

    pad = lo_cutoff + signal_cutoff
    d_pad, d_sig = pad + 1, signal_cutoff + 1
    d_live = click_matrix(det.tmd_c, pad)
    # the unbalanced outcomes never read the LO arm, so its matrix is not built
    d_lo = None if det.unbalanced else click_matrix(det.tmd_d, pad)

    u_cols = _bs_columns(float(det.reflectivity), lo_cutoff, int(signal_cutoff))
    u_r = u_cols.reshape(d_pad * d_pad, lo_cutoff + 1, d_sig)
    vecs = np.array([coherent_amplitudes(a, lo_cutoff)[0] for _, a in lo_components])
    # one path can serve both once ROADMAP items 1, 2 and 4 make the robust
    # rows insensitive to roundoff in the operators
    if len(weights) > 1:
        ops = _mixed_lo_ops(u_r, vecs, weights, d_live, d_lo)
    else:
        ops = _pure_lo_ops(u_r, vecs, d_live, d_lo)

    if det.unbalanced:
        outcomes = list(range(det.tmd_c.bins + 1))
    else:
        outcomes = [
            (bc, bd) for bc in range(det.tmd_c.bins + 1) for bd in range(det.tmd_d.bins + 1)
        ]
    space = HilbertSpec((signal_cutoff,))
    elements = []
    for outc, op in zip(outcomes, ops):
        op = 0.5 * (op + op.conj().T)
        elements.append(PovmElement(outc, det, FockOperator(space, op)))
    return PovmSet(tuple(elements))


def _pure_lo_ops(u_r, vecs, d_live, d_lo):
    """Unsymmetrised elements of a one-component LO, one einsum per outcome
    over the amplitudes wv[na, nb, b] of the output state given signal |b>
    (na photons on the LO-aligned arm, nb on the signal-aligned arm).  An
    unbalanced detector has no LO-arm click matrix d_lo."""
    d_pad, d_sig = d_live.shape[1], u_r.shape[2]
    wv = np.einsum("rab,ka->krb", u_r, vecs).reshape(1, d_pad, d_pad, d_sig)
    wv_conj = wv.conj()
    if d_lo is None:
        return [np.einsum("kabi,b,kabj->ij", wv_conj, row, wv, optimize=True) for row in d_live]
    return [
        np.einsum("kabi,a,b,kabj->ij", wv_conj, d_lo[bd], d_live[bc], wv, optimize=True)
        for bc in range(d_live.shape[0])
        for bd in range(d_lo.shape[0])
    ]


def _mixed_lo_ops(u_r, vecs, weights, d_live, d_lo):
    """Unsymmetrised elements of a mixed LO through its density matrix.

    s = sum_k w_k conj(v_k) v_k^T is the LO density matrix (transposed);
    q[na, nb] = U_r^H s U_r, with U_r the (LO, signal) -> output columns of
    output pair r = (na, nb), is the signal operator that output pair
    carries, and each element is a click-weighted sum of the q blocks.
    """
    d_pad, d_sig = d_live.shape[1], u_r.shape[2]
    s = (vecs.conj().T * weights) @ vecs
    q = (u_r.conj().transpose(0, 2, 1) @ (s @ u_r)).reshape(d_pad, d_pad, d_sig, d_sig)
    if d_lo is None:
        return (d_live @ q.sum(axis=0).reshape(d_pad, -1)).reshape(-1, d_sig, d_sig)
    ops = np.einsum("xa,yb,abij->yxij", d_lo, d_live, q, optimize=True)
    return ops.reshape(-1, d_sig, d_sig)


# ---------------------------------------------------------------------------
# Wigner functions


def _disp_element(n_row: int, m_col: int, beta: np.ndarray, abs2: np.ndarray) -> np.ndarray:
    """<n|D(beta)|m> on arrays of beta, via the associated Laguerre form."""
    if n_row >= m_col:
        k = n_row - m_col
        pref = np.exp(0.5 * (gammaln(m_col + 1) - gammaln(n_row + 1)))
        lag = eval_genlaguerre(m_col, k, abs2)
        return pref * beta**k * np.exp(-0.5 * abs2) * lag
    k = m_col - n_row
    pref = np.exp(0.5 * (gammaln(n_row + 1) - gammaln(m_col + 1)))
    lag = eval_genlaguerre(n_row, k, abs2)
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


def _tmd_to_json(t: TmdConfig) -> dict:
    return {
        "bins": t.bins,
        "efficiency": t.efficiency,
        "bin_probabilities": list(t.bin_probabilities) if t.bin_probabilities else None,
    }


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
            "unbalanced": setting.unbalanced,
            "tmd_c": _tmd_to_json(setting.tmd_c),
            "tmd_d": _tmd_to_json(setting.tmd_d),
        },
        "elements": [
            {
                "outcome": list(e.outcome) if isinstance(e.outcome, tuple) else e.outcome,
                "matrix": _complex_matrix_to_json(e.operator.matrix),
            }
            for e in povm.elements
        ],
    }
