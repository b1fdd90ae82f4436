"""Exact logarithmic negativity of bipartite truncated states.

The logarithmic negativity is log2 of the trace norm of the partially
transposed density matrix.  It serves as ground truth for the certified
lower bounds produced elsewhere in the package.  It is computed from the
state's nonzero entries alone: the partial transpose only moves entries,
so its nonzero pattern, its connected components and each component's
block are read from rho through an index map, and only the blocks are
diagonalized.
"""

from __future__ import annotations

import numpy as np

from .fock import TOL_HERM, TruncatedState, partial_transpose_index


class NegativityResult:
    """Trace norm of the partial transpose and its base-2 logarithm.

    log_negativity is clamped at 0 (the trace norm of a valid state's
    partial transpose never falls below 1 beyond numerical noise).  A plain
    class, as sdp.SdpSolution is: a dataclass takes ~0.3-0.5 ms to create
    at import, and nothing reads its generated methods.
    """

    def __init__(self, log_negativity: float, trace_norm: float, negative_eigenvalues: tuple):
        self.log_negativity = log_negativity
        self.trace_norm = trace_norm
        self.negative_eigenvalues = negative_eigenvalues


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


def exact_log_negativity(state: TruncatedState) -> NegativityResult:
    """Logarithmic negativity of a two-mode state.

    Eigendecomposition of the first-mode partial transpose of
    (rho + rho†)/2; the second-mode one is its transpose, with the same
    spectrum.  The trace norm is the sum of absolute eigenvalues and the
    result is its base-2 logarithm, clamped below at 0.  Basis states
    that no nonzero entry of the partial transpose connects span invariant
    subspaces, so each connected component of its nonzero pattern is
    diagonalized on its own (for U(1)-symmetric states these are
    photon-number sectors).

    The Hermiticity deviation and the nonzero pattern are read from rho's
    nonzero entries and their mirror entries alone: where both vanish, so
    do rho - rho† and the Hermitian part.  The pattern is moved to
    partial-transpose coordinates, and each component's block is gathered
    from rho through the same index map, so no dense copy of rho†, the
    Hermitian part or the partial transpose is formed.  Coordinates and
    entries come from the state's ``support`` and ``entries``, so a pure
    state is read from its vector and its density matrix is never formed;
    the result has the bits of the same state built from its matrix.
    Raises ValueError for a non-finite entry or a deviation above TOL_HERM.
    """
    if state.space.n_modes != 2:
        raise ValueError("bipartite state expected")
    d = state.space.dim
    d2 = state.space.dims[1]
    # rho's nonzero entries suffice: |x - y| and the Hermitian part's nonzero
    # test take the same values at (r, c) and (c, r), and the component
    # graph is undirected
    r, c = state.support()
    x = state.entries(r, c)
    if not np.all(np.isfinite(x)):
        raise ValueError("input has a non-finite entry")
    y = state.entries(c, r).conj()
    herm = np.max(np.abs(x - y), initial=0.0)
    if herm > TOL_HERM:
        raise ValueError(f"input not Hermitian: deviation {herm:.3e}")
    keep = 0.5 * (x + y) != 0
    rows, cols = partial_transpose_index(r[keep], c[keep], d2)
    labels = _component_labels(rows, cols, d)
    # members of each component in ascending order, components by smallest member
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    parts = []
    # sorted(set()) and not np.unique, whose hash path imports numpy.ma
    for size in sorted(set(sizes.tolist())):
        # one stacked eigvalsh per block size, gathered from rho
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        hr, hc = partial_transpose_index(idx[:, :, None], idx[:, None, :], d2)
        block = 0.5 * (state.entries(hr, hc) + state.entries(hc, hr).conj())
        parts.append(np.linalg.eigvalsh(block).ravel())
    w = np.sort(np.concatenate(parts))
    trace_norm = float(np.sum(np.abs(w)))
    log_neg = max(0.0, float(np.log2(trace_norm)))
    negs = tuple(float(v) for v in w[w < 0.0])
    return NegativityResult(log_neg, trace_norm, negs)


def closed_form_squeezed_ln(lam: float) -> float:
    """log2((1 + lambda)/(1 - lambda)): untruncated two-mode squeezed vacuum value."""
    return float(np.log2((1.0 + lam) / (1.0 - lam)))
