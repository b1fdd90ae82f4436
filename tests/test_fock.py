"""Unit tests for the truncated Fock-space module."""

import numpy as np
import pytest

from entcert import fock
from entcert.fock import (
    FockOperator,
    HilbertSpec,
    SqueezedParams,
    SubtractionParams,
    TruncatedState,
)

import oracles


def test_hilbert_spec_validation():
    s = HilbertSpec((3, 3))
    assert s.n_modes == 2 and s.dims == (4, 4) and s.dim == 16
    with pytest.raises(ValueError):
        HilbertSpec(())
    with pytest.raises(ValueError):
        HilbertSpec((3, -1))


def test_truncated_state_invariants():
    s = HilbertSpec((1,))
    TruncatedState(s, np.diag([0.25, 0.75]))
    with pytest.raises(ValueError):
        TruncatedState(s, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        TruncatedState(s, np.diag([0.3, 0.3]))  # trace != 1
    with pytest.raises(ValueError):
        TruncatedState(s, np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        TruncatedState(s, np.eye(3) / 3.0)  # wrong shape


def test_coherent_vacuum():
    st, tail = fock.coherent_state(0.0, 4)
    assert tail == 0.0
    expect = np.zeros((5, 5))
    expect[0, 0] = 1.0
    assert np.allclose(st.matrix, expect)


def test_coherent_mean_photon():
    st, tail = fock.coherent_state(1.0, 10)
    nbar = float(np.real(np.sum(np.arange(11) * np.diag(st.matrix))))
    assert abs(nbar - 1.0) < 1e-3
    assert tail < 1e-6


def test_coherent_tail_rejection():
    # frozen from the direct Poisson sum: 1 - e^{-6.25} sum_{n<=3} 6.25^n/n!
    _, tail = fock.coherent_amplitudes(2.5, 3)
    assert abs(tail - oracles.poisson_tail(6.25, 3)) < 1e-12
    assert abs(tail - 0.8697496452720737) < 1e-9
    with pytest.raises(ValueError):
        fock.coherent_state(2.5, 3)


def test_coherent_phase_enters_amplitudes():
    vec, _ = fock.coherent_amplitudes(1.0 * np.exp(1j * 0.7), 8)
    ref, _ = fock.coherent_amplitudes(1.0, 8)
    assert np.allclose(vec, ref * np.exp(1j * 0.7 * np.arange(9)))


def test_adaptive_lo_cutoff():
    assert fock.adaptive_lo_cutoff(1.0) == 12
    c = fock.adaptive_lo_cutoff(2.5)
    assert c > 12
    assert oracles.poisson_tail(6.25, c) <= 1e-6
    assert oracles.poisson_tail(6.25, c - 1) > 1e-6


def test_two_mode_squeezed_trivial():
    st = fock.two_mode_squeezed(SqueezedParams(0.0, 3))
    expect = np.zeros((16, 16))
    expect[0, 0] = 1.0
    assert np.allclose(st.matrix, expect)


def test_two_mode_squeezed_schmidt():
    st = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    c = np.array([1.0, 0.2, 0.04, 0.008])
    c = c / np.linalg.norm(c)
    vec = np.zeros(16)
    vec[[0, 5, 10, 15]] = c
    assert np.max(np.abs(st.matrix - np.outer(vec, vec))) < 1e-14


def test_beam_splitter_identity():
    u = fock.beam_splitter_unitary(1.0, HilbertSpec((2, 2)))
    assert np.max(np.abs(u.matrix - np.eye(9))) < 1e-12


def test_beam_splitter_single_photon():
    u = fock.beam_splitter_unitary(0.5, HilbertSpec((1, 1)))
    out = u.matrix @ np.array([0.0, 0.0, 1.0, 0.0])  # |1,0>
    expect = np.array([0.0, 1j / np.sqrt(2), 1 / np.sqrt(2), 0.0])
    assert np.max(np.abs(out - expect)) < 1e-12


def test_beam_splitter_number_conservation():
    space = HilbertSpec((3, 4))
    u = fock.beam_splitter_unitary(0.37, space)
    n_tot = np.diag([n1 + n2 for n1 in range(4) for n2 in range(5)]).astype(complex)
    comm = u.matrix @ n_tot - n_tot @ u.matrix
    assert np.max(np.abs(comm)) < 1e-12


def test_beam_splitter_matches_projected_expm_oracle():
    # dense expm on a padded space, projected, must equal the sector build
    for r in (0.13, 0.5, 0.86):
        u = fock.beam_splitter_unitary(r, HilbertSpec((3, 3)))
        ref = oracles.bs_unitary_projected(r, 3, 3)
        assert np.max(np.abs(u.matrix - ref)) < 1e-12


def test_beam_splitter_unitarity_deficit():
    u = fock.beam_splitter_unitary(0.5, HilbertSpec((3, 3)))
    assert fock.unitarity_deficit(u) < 1e-9
    u = fock.beam_splitter_unitary(0.91, HilbertSpec((3, 12)))
    assert fock.unitarity_deficit(u) < 1e-9


def test_photon_subtracted_ideal_single_term():
    st = fock.photon_subtracted_ideal(SqueezedParams(0.2, 1), 1.0)
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # |0,1>
    assert np.allclose(st.matrix, expect)


def test_photon_subtracted_ideal_null_rejected():
    with pytest.raises(ValueError):
        fock.photon_subtracted_ideal(SqueezedParams(0.0, 3), 0.95)


def test_photon_subtracted_ideal_norm():
    # unnormalized norm sqrt(sum_{n=1..3} (0.27)^{2n} n) at lambda=0.3, T=0.9
    st = fock.photon_subtracted_ideal(SqueezedParams(0.3, 3), 0.9)
    q = 0.27
    norm = np.sqrt(sum(q ** (2 * n) * n for n in (1, 2, 3)))
    d = 4
    vec = np.zeros(16)
    for n in (1, 2, 3):
        vec[(n - 1) * d + n] = q**n * np.sqrt(n) / norm
    assert np.max(np.abs(st.matrix - np.outer(vec, vec))) < 1e-14


def test_photon_subtracted_conditional_vacuum_rejected():
    vac = TruncatedState.from_vector(HilbertSpec((3, 3)), np.eye(16)[0])
    with pytest.raises(ValueError):
        fock.photon_subtracted_conditional(vac, SubtractionParams(0.95, 0.2))


def test_photon_subtracted_conditional_herald_range():
    tmsv = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    cond, p = fock.photon_subtracted_conditional(tmsv, SubtractionParams(0.95, 0.2))
    assert 0.0 < p <= 1.0
    cond.validate()


def test_photon_subtracted_conditional_ideal_limit():
    # apd = 1, T -> 1: trace distance to the closed-form state <= 1e-2
    tmsv = fock.two_mode_squeezed(SqueezedParams(0.1, 3))
    cond, _ = fock.photon_subtracted_conditional(tmsv, SubtractionParams(0.999, 1.0))
    ideal = fock.photon_subtracted_ideal(SqueezedParams(0.1, 3), 0.999)
    assert fock.trace_distance(cond, ideal) <= 1e-2


def test_photon_subtracted_conditional_mode_choice():
    tmsv = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    c0, p0 = fock.photon_subtracted_conditional(tmsv, SubtractionParams(0.9, 0.3), mode=0)
    c1, p1 = fock.photon_subtracted_conditional(tmsv, SubtractionParams(0.9, 0.3), mode=1)
    assert abs(p0 - p1) < 1e-14  # symmetric input
    swapped = c1.matrix.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    assert np.max(np.abs(c0.matrix - swapped)) < 1e-13


def _random_state(rng, dims):
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return TruncatedState(HilbertSpec(tuple(x - 1 for x in dims)), rho)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(7)
    a = _random_state(rng, (3,))
    b = _random_state(rng, (4,))
    prod = fock.tensor(a, b)
    pt = fock.partial_transpose(prod, 0)
    expect = np.kron(a.matrix.T, b.matrix)
    assert np.max(np.abs(pt.matrix - expect)) < 1e-14
    w = np.linalg.eigvalsh(pt.matrix)
    assert abs(np.sum(np.abs(w)) - 1.0) < 1e-12  # PPT: trace norm 1


def test_partial_transpose_involution_and_symmetries():
    rng = np.random.default_rng(8)
    st = _random_state(rng, (3, 4))
    pt = fock.partial_transpose(st, 0)
    back = fock.partial_transpose(pt, 0)
    assert np.array_equal(back.matrix, st.matrix)  # exact involution
    assert abs(np.trace(pt.matrix) - 1.0) < 1e-14
    assert np.max(np.abs(pt.matrix - pt.matrix.conj().T)) < 1e-14


def test_partial_transpose_bell_like():
    bell = TruncatedState.from_vector(
        HilbertSpec((1, 1)), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    )
    w = np.linalg.eigvalsh(fock.partial_transpose(bell).matrix)
    assert abs(w[0] + 0.5) < 1e-12


def test_partial_transpose_needs_bipartite():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        fock.partial_transpose(_random_state(rng, (2, 2, 2)), 0)


def test_partial_transpose_array_over_batch_axes():
    rng = np.random.default_rng(11)
    d1, d2 = 2, 3
    stack = rng.normal(size=(4, 2, 6, 6)) + 1j * rng.normal(size=(4, 2, 6, 6))
    first = fock.partial_transpose_array(stack, d1, d2)
    assert np.array_equal(first, oracles._partial_transpose_first(stack, d1, d2))
    second = fock.partial_transpose_array(stack, d1, d2, subsystem=1)
    space = HilbertSpec((d1 - 1, d2 - 1))
    for idx in np.ndindex(stack.shape[:2]):
        op = FockOperator(space, stack[idx])
        assert np.array_equal(second[idx], fock.partial_transpose(op, 1).matrix)
    with pytest.raises(ValueError):
        fock.partial_transpose_array(stack, d1, d2, subsystem=2)


def test_partial_trace_product():
    rng = np.random.default_rng(10)
    a = _random_state(rng, (3,))
    b = _random_state(rng, (4,))
    keep_a = fock.partial_trace(fock.tensor(a, b), [0])
    keep_b = fock.partial_trace(fock.tensor(a, b), [1])
    assert np.max(np.abs(keep_a.matrix - a.matrix)) < 1e-14
    assert np.max(np.abs(keep_b.matrix - b.matrix)) < 1e-14


def test_partial_trace_squeezed_marginal():
    st = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    red = fock.partial_trace(st, [1])
    pops = np.array([0.04**n for n in range(4)])
    pops /= pops.sum()
    assert np.max(np.abs(red.matrix - np.diag(pops))) < 1e-14


def test_partial_trace_validation():
    rng = np.random.default_rng(11)
    st = _random_state(rng, (3, 3))
    assert abs(np.trace(fock.partial_trace(st, [0]).matrix) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fock.partial_trace(st, [])
    with pytest.raises(ValueError):
        fock.partial_trace(st, [2])


def test_phase_rotation():
    r = fock.phase_rotation(np.pi / 2, 3)
    assert np.allclose(np.diag(r.matrix), [1, 1j, -1, -1j])


def test_expectation_and_trace_distance():
    rng = np.random.default_rng(12)
    st = _random_state(rng, (4,))
    ident = FockOperator(st.space, np.eye(4))
    assert abs(fock.expectation(st, ident) - 1.0) < 1e-12
    assert fock.trace_distance(st, st) < 1e-14
