"""Unit tests for the truncated Fock-space module."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from entcert import fock
from entcert.fock import (
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


def test_log_factorials_within_one_ulp():
    # against a 60-digit logarithm of the exact factorial, through the
    # largest n! a double holds
    table = fock.log_factorials(170)
    with localcontext() as ctx:
        ctx.prec = 60
        for n, value in enumerate(table):
            ref = Decimal(math.factorial(n)).ln()
            assert abs(Decimal(float(value)) - ref) <= Decimal(math.ulp(float(value))), n
    assert not table.flags.writeable
    assert np.array_equal(fock.log_factorials(12), table[:13])


def test_coherent_vacuum():
    vec, tail = fock.coherent_amplitudes(0.0, 4)
    assert tail == 0.0
    assert np.array_equal(vec, np.eye(5)[0])


def test_coherent_mean_photon():
    vec, tail = fock.coherent_amplitudes(1.0, 10)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
    nbar = float(np.sum(np.arange(11) * np.abs(vec) ** 2))
    assert abs(nbar - 1.0) < 1e-3
    assert tail < 1e-6


def test_coherent_tail_rejection():
    # frozen from the direct Poisson sum: 1 - e^{-6.25} sum_{n<=3} 6.25^n/n!
    _, tail = fock.coherent_amplitudes(2.5, 3)
    assert abs(tail - oracles.poisson_tail(6.25, 3)) < 1e-12
    assert abs(tail - 0.8697496452720737) < 1e-9
    # too much tail for an LO cutoff: adaptive_lo_cutoff never picks it
    assert tail > fock.TAIL_TOL


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


@pytest.mark.parametrize("largest", [0.5, 1.0, 2.5, 4.0])
def test_adaptive_lo_cutoff_covers_every_smaller_amplitude(largest):
    # one cutoff serves an LO mixture: chosen for the largest amplitude, it
    # keeps the tail of every smaller one below TAIL_TOL too
    c = fock.adaptive_lo_cutoff(largest)
    for a in np.linspace(0.0, largest, 41):
        _, tail = fock.coherent_amplitudes(a, c)
        assert tail <= fock.TAIL_TOL


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
    # exactly unitary on the states of total photon number <= min(cutoffs)
    for r, (c1, c2) in ((0.5, (3, 3)), (0.91, (3, 12))):
        u = fock.beam_splitter_unitary(r, HilbertSpec((c1, c2))).matrix
        n1, n2 = np.divmod(np.arange(u.shape[0]), c2 + 1)
        inner = np.flatnonzero(n1 + n2 <= min(c1, c2))
        g = (u.conj().T @ u)[np.ix_(inner, inner)]
        assert np.max(np.abs(g - np.eye(len(inner)))) < 1e-9


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
    trace_distance = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(cond.matrix - ideal.matrix)))
    assert trace_distance <= 1e-2


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
    pt = fock.partial_transpose_array(np.kron(a.matrix, b.matrix), 3, 4)
    expect = np.kron(a.matrix.T, b.matrix)
    assert np.max(np.abs(pt - expect)) < 1e-14
    w = np.linalg.eigvalsh(pt)
    assert abs(np.sum(np.abs(w)) - 1.0) < 1e-12  # PPT: trace norm 1


def test_partial_transpose_involution_and_symmetries():
    rng = np.random.default_rng(8)
    st = _random_state(rng, (3, 4))
    pt = fock.partial_transpose_array(st.matrix, 3, 4)
    back = fock.partial_transpose_array(pt, 3, 4)
    assert np.array_equal(back, st.matrix)  # exact involution
    assert abs(np.trace(pt) - 1.0) < 1e-14
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
    # the coordinate map is its own inverse too
    rows, cols = np.indices((12, 12))
    pr, pc = fock.partial_transpose_index(rows, cols, 4)
    br, bc = fock.partial_transpose_index(pr, pc, 4)
    assert np.array_equal(br, rows) and np.array_equal(bc, cols)


def test_partial_transpose_bell_like():
    bell = TruncatedState.from_vector(
        HilbertSpec((1, 1)), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    )
    w = np.linalg.eigvalsh(fock.partial_transpose_array(bell.matrix, 2, 2))
    assert abs(w[0] + 0.5) < 1e-12


def test_partial_transpose_array_over_batch_axes():
    rng = np.random.default_rng(11)
    d1, d2 = 2, 3
    stack = rng.normal(size=(4, 2, 6, 6)) + 1j * rng.normal(size=(4, 2, 6, 6))
    first = fock.partial_transpose_array(stack, d1, d2)
    assert np.array_equal(first, oracles._partial_transpose_first(stack, d1, d2))
