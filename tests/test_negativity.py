"""Unit tests for the exact logarithmic negativity module."""

import tracemalloc

import numpy as np
import pytest

from entcert import cli, fock
from entcert.fock import HilbertSpec, SqueezedParams, TruncatedState
from entcert.negativity import closed_form_squeezed_ln, exact_log_negativity

import oracles


def _trusted(space, matrix):
    """A TruncatedState holding matrix, read-only, without validate() (shape,
    Hermiticity, trace and eigenvalues): for matrices that are not states,
    or states by construction.  exact_log_negativity re-checks Hermiticity
    and finiteness itself."""
    obj = object.__new__(TruncatedState)
    object.__setattr__(obj, "space", space)
    object.__setattr__(obj, "_matrix", fock._freeze(np.asarray(matrix, dtype=complex)))
    return obj


def test_product_state_zero():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = g @ g.conj().T
    rho_a /= np.trace(rho_a).real
    vec, _ = fock.coherent_amplitudes(0.5, 8)
    rho_b = np.outer(vec, vec.conj())
    res = exact_log_negativity(TruncatedState(HilbertSpec((2, 8)), np.kron(rho_a, rho_b)))
    assert 0.0 <= res.log_negativity < 1e-12
    assert abs(res.trace_norm - 1.0) < 1e-10


def test_squeezed_truncated_value():
    st = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    res = exact_log_negativity(st)
    # frozen from the Schmidt-coefficient oracle (1, .2, .04, .008)
    assert abs(res.log_negativity - oracles.pure_state_log_negativity([1, 0.2, 0.04, 0.008])) < 1e-12
    assert abs(res.log_negativity - 0.5803458726507865) < 1e-12
    assert abs(res.log_negativity - 0.5803) < 1e-3
    assert len(res.negative_eigenvalues) > 0
    assert abs(res.trace_norm - 2.0**res.log_negativity) < 1e-12


def test_squeezed_large_cutoff_closed_form():
    for lam in (0.1, 0.2, 0.3):
        res = exact_log_negativity(fock.two_mode_squeezed(SqueezedParams(lam, 30)))
        assert abs(res.log_negativity - closed_form_squeezed_ln(lam)) < 1e-6


def _permuted_block_state(rng, cutoffs):
    """Unit-trace Hermitian matrix whose partial transpose is a permuted
    direct sum of random Hermitian blocks of sizes 1, 2 and 3.  It is not
    PSD; exact_log_negativity needs only Hermiticity."""
    space = HilbertSpec(cutoffs)
    d = space.dim
    sizes = []
    while sum(sizes) < d:
        sizes.append(int(min(rng.integers(1, 4), d - sum(sizes))))
    perm = rng.permutation(d)
    y = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        idx = perm[start : start + size]
        y[np.ix_(idx, idx)] = g + g.conj().T
        start += size
    y += 2.0 * np.eye(d)  # keeps the trace away from zero
    z = oracles._partial_transpose_first(y, *space.dims)
    return _trusted(space, z / np.trace(z).real), sorted(set(sizes))


def _dense_random_state(rng, cutoffs):
    """Rank-2 state with no zero entries: its partial transpose is one block."""
    space = HilbertSpec(cutoffs)
    g = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return TruncatedState(space, rho / np.trace(rho).real)


def test_block_wise_matches_full_spectrum():
    rng = np.random.default_rng(5)
    states = []
    for cutoffs in ((3, 4), (5, 2), (6, 6)):
        state, sizes = _permuted_block_state(rng, cutoffs)
        assert sizes == [1, 2, 3]
        states.append(state)
    states += [_dense_random_state(rng, c) for c in ((1, 1), (2, 3), (4, 4))]
    states += [fock.two_mode_squeezed(SqueezedParams(lam, 30)) for lam in (0.2, 0.5)]
    for state in states:
        d1, d2 = state.space.dims
        w = oracles.partial_transpose_spectrum(state.matrix, d1, d2)
        res = exact_log_negativity(state)
        assert abs(res.trace_norm - np.sum(np.abs(w))) < 1e-12
        assert abs(res.log_negativity - max(0.0, np.log2(np.sum(np.abs(w))))) < 1e-12
        assert len(res.negative_eigenvalues) == int(np.sum(w < 0.0)) > 0


def test_monotone_in_lambda():
    vals = [
        exact_log_negativity(fock.two_mode_squeezed(SqueezedParams(lam, 3))).log_negativity
        for lam in (0.1, 0.2, 0.3)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_truncated_below_closed_form():
    for lam in (0.1, 0.2, 0.3):
        res = exact_log_negativity(fock.two_mode_squeezed(SqueezedParams(lam, 3)))
        assert res.log_negativity <= closed_form_squeezed_ln(lam) + 1e-9


def test_local_rotation_invariance():
    st = fock.two_mode_squeezed(SqueezedParams(0.25, 3))
    base = exact_log_negativity(st).log_negativity
    rot = np.diag(np.exp(1j * np.arange(4) * 0.83))
    for u in (np.kron(rot, np.eye(4)), np.kron(np.eye(4), rot)):
        rotated = _trusted(st.space, u @ st.matrix @ u.conj().T)
        assert abs(exact_log_negativity(rotated).log_negativity - base) < 1e-9


def test_subtracted_ideal_frozen_value():
    # closed-form coefficients (lambda T)^n sqrt(n), lambda=0.2, T=0.95
    st = fock.photon_subtracted_ideal(SqueezedParams(0.2, 3), 0.95)
    q = 0.19
    coeffs = [q**n * np.sqrt(n) for n in (1, 2, 3)]
    expect = oracles.pure_state_log_negativity(coeffs)
    res = exact_log_negativity(st)
    assert abs(res.log_negativity - expect) < 1e-12
    assert abs(res.log_negativity - 0.7196894619821074) < 1e-12


def test_cut_choice_symmetric():
    # the second-mode partial transpose is the transpose of the first-mode
    # one, so the first-mode trace norm serves both cuts
    rng = np.random.default_rng(19)
    for state in (_dense_random_state(rng, (2, 3)), _permuted_block_state(rng, (3, 4))[0]):
        d1, d2 = state.space.dims
        t = np.swapaxes(state.matrix.reshape(d1, d2, d1, d2), 1, 3)
        w = np.linalg.eigvalsh(t.reshape(d1 * d2, d1 * d2))
        assert abs(exact_log_negativity(state).trace_norm - np.sum(np.abs(w))) < 1e-12


def _trusted_variant(state, entries):
    """The state's matrix with the given {(i, j): value} entries set,
    wrapped without validation."""
    mat = state.matrix.copy()
    for (i, j), value in entries.items():
        mat[i, j] = value
    return _trusted(state.space, mat)


def test_matches_dense_oracle_bit_for_bit():
    rng = np.random.default_rng(17)
    states = [_permuted_block_state(rng, c)[0] for c in ((3, 4), (5, 2), (6, 6))]
    states += [_dense_random_state(rng, c) for c in ((2, 3), (4, 1), (3, 6))]
    states.append(fock.two_mode_squeezed(SqueezedParams(0.3, 30)))
    states.append(fock.photon_subtracted_ideal(SqueezedParams(0.2, 3), 0.95))
    tmsv = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    # one-sided entries within TOL_HERM: m_ij != 0, m_ji = 0
    states.append(_trusted_variant(tmsv, {(1, 2): 4e-11, (7, 12): -3e-11j}))
    # a pair whose Hermitian part is exactly 0, between two blocks: it must
    # not join them
    m = states[0].matrix
    i, j = np.argwhere((m == 0) & (m.T == 0))[0]
    states.append(_trusted_variant(states[0], {(i, j): 1e-12j, (j, i): 1e-12j}))
    for state in states:
        d1, d2 = state.space.dims
        res = exact_log_negativity(state)
        ln, trace_norm, negs = oracles.dense_exact_log_negativity(state.matrix, d1, d2)
        assert res.log_negativity == ln
        assert res.trace_norm == trace_norm
        assert res.negative_eigenvalues == negs


def _pure_states():
    for lam in (0.1, 0.2, 0.3, 0.5, 0.9, 0.2936):
        for n_max in (0, 1, 3, 10, 30):
            params = SqueezedParams(lam, n_max)
            yield fock.two_mode_squeezed(params)
            if n_max > 0:  # at n_max = 0 no photon is left to subtract
                yield fock.photon_subtracted_ideal(params, 0.9)


def test_pure_state_bits_match_its_matrix():
    # a pure state is read from its vector; its matrix gives the same bits
    for state in _pure_states():
        res = exact_log_negativity(state)
        assert state._matrix is None
        ref = exact_log_negativity(TruncatedState(state.space, state.matrix))
        assert res.log_negativity == ref.log_negativity
        assert res.trace_norm == ref.trace_norm
        assert res.negative_eigenvalues == ref.negative_eigenvalues


def test_pure_state_ln_forms_no_density_matrix():
    # the 961 x 961 density matrix alone would take 14.8 MB; a first call
    # at a small cutoff loads the code numpy imports lazily
    exact_log_negativity(fock.two_mode_squeezed(SqueezedParams(0.3, 3)))
    tracemalloc.start()
    try:
        state = fock.two_mode_squeezed(SqueezedParams(0.3, 30))
        res = exact_log_negativity(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state._matrix is None
    assert peak < 2**20
    assert abs(res.log_negativity - closed_form_squeezed_ln(0.3)) < 1e-6


def test_conditional_state_reads_the_squeezed_matrix():
    # photon subtraction reads the squeezed state's matrix, formed from its
    # vector; built from that matrix instead, the state has the same bits
    cfg = cli.ExperimentConfig()
    initial, subtracted, p_click = cli.make_states(cfg)
    params = fock.SubtractionParams(cfg.transmission, cfg.apd_efficiency)
    ref, p_ref = fock.photon_subtracted_conditional(
        TruncatedState(initial.space, np.outer(initial.vector, initial.vector.conj())), params
    )
    assert np.array_equal(subtracted.matrix, ref.matrix)
    assert p_click == p_ref
    got, want = exact_log_negativity(subtracted), exact_log_negativity(ref)
    assert (got.log_negativity, got.trace_norm) == (want.log_negativity, want.trace_norm)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
def test_non_finite_rejected(value):
    # unchecked, NaN read as log_negativity 0 and inf as log_negativity inf
    tmsv = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    for entries in ({(0, 0): value}, {(1, 4): value, (4, 1): value}):
        with pytest.raises(ValueError, match="non-finite"):
            exact_log_negativity(_trusted_variant(tmsv, entries))


def test_non_hermitian_rejected():
    mat = np.triu(np.ones((4, 4))) / 2.5
    bad = _trusted(HilbertSpec((1, 1)), mat)
    dense = np.max(np.abs(mat - mat.conj().T))
    with pytest.raises(ValueError, match=f"not Hermitian: deviation {dense:.3e}"):
        exact_log_negativity(bad)


def test_non_bipartite_rejected():
    vec, _ = fock.coherent_amplitudes(0.3, 8)
    with pytest.raises(ValueError):
        exact_log_negativity(TruncatedState.from_vector(HilbertSpec((8,)), vec))
