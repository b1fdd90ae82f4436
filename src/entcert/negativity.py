"""Exact logarithmic negativity of bipartite truncated states.

The logarithmic negativity is log2 of the trace norm of the partially
transposed density matrix.  It serves as ground truth for the certified
lower bounds produced elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import TOL_HERM, TruncatedState, partial_transpose_array


@dataclass(frozen=True, eq=False)
class NegativityResult:
    """Trace norm of the partial transpose and its base-2 logarithm.

    log_negativity is clamped at 0 (the trace norm of a valid state's
    partial transpose never falls below 1 beyond numerical noise).
    """

    log_negativity: float
    trace_norm: float
    negative_eigenvalues: tuple


def _component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Smallest vertex index of each vertex's connected component, for the
    undirected graph on n vertices with the given edge list.

    Every round lowers each edge's endpoints to the smaller of their labels
    and then follows labels to their own labels until they settle.
    """
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[rows], labels[cols])
        new = labels.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        while True:
            hop = new[new]
            if np.array_equal(hop, new):
                break
            new = hop
        if np.array_equal(new, labels):
            return labels
        labels = new


def exact_log_negativity(state: TruncatedState, cut: int = 0) -> NegativityResult:
    """Logarithmic negativity across the bipartition at the given mode.

    Eigendecomposition of the partial transpose of (rho + rho†)/2; the
    trace norm is the sum of absolute eigenvalues and the result is its
    base-2 logarithm, clamped below at 0.  Basis states that no nonzero
    entry of the partial transpose connects span invariant subspaces, so
    each connected component of its nonzero pattern is diagonalized on its
    own (for U(1)-symmetric states these are photon-number sectors).
    """
    if state.space.n_modes != 2:
        raise ValueError("bipartite state expected")
    mat = state.matrix
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > TOL_HERM:
        raise ValueError(f"input not Hermitian: deviation {herm:.3e}")
    pt = partial_transpose_array(0.5 * (mat + mat.conj().T), *state.space.dims, cut)
    rows, cols = np.nonzero(pt)
    labels = _component_labels(rows, cols, pt.shape[0])
    # members of each component in ascending order, components by smallest member
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    parts = []
    for size in np.unique(sizes):
        # one stacked eigvalsh per block size
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        parts.append(np.linalg.eigvalsh(pt[idx[:, :, None], idx[:, None, :]]).ravel())
    w = np.sort(np.concatenate(parts))
    trace_norm = float(np.sum(np.abs(w)))
    log_neg = max(0.0, float(np.log2(trace_norm)))
    negs = tuple(float(x) for x in w[w < 0.0])
    return NegativityResult(log_neg, trace_norm, negs)


def closed_form_squeezed_ln(lam: float) -> float:
    """log2((1 + lambda)/(1 - lambda)): untruncated two-mode squeezed vacuum value."""
    return float(np.log2((1.0 + lam) / (1.0 - lam)))
