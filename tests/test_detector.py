"""Unit tests for the TMD and weak-homodyne detector model."""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import comb, eval_genlaguerre

from entcert import detector, fock
from entcert.detector import DetectorConfig, TmdConfig

import oracles


def _tc(eta, bins=8):
    return TmdConfig(bins=bins, efficiency=eta)


def _det(amp=1.0, phase=0.0, r=0.5, eta=0.1, bins=8):
    return DetectorConfig(amp, phase, r, _tc(eta, bins))


# ---------------------------------------------------------------------------
# click statistics


def test_tmd_config_validation():
    with pytest.raises(ValueError):
        TmdConfig(bins=0, efficiency=0.5)
    with pytest.raises(ValueError):
        TmdConfig(bins=8, efficiency=1.5)


def test_loss_matrix_identity_and_total_loss():
    assert np.allclose(detector.loss_matrix(4, 1.0), np.eye(5))
    l0 = detector.loss_matrix(4, 0.0)
    assert np.allclose(l0[0], np.ones(5))
    assert np.max(np.abs(l0[1:])) == 0.0


def test_loss_matrix_binomial_column():
    l = detector.loss_matrix(2, 0.1)
    assert np.allclose(l[:, 2], [0.81, 0.18, 0.01])


def test_loss_matrix_vs_bruteforce():
    for eta in (0.23, 0.77):
        assert np.max(np.abs(detector.loss_matrix(5, eta) - oracles.loss_matrix_bruteforce(5, eta))) < 1e-12


def test_loss_matrix_matches_scipy_comb_bit_for_bit():
    # the Pascal binomials equal scipy's comb exactly up to n = 30; from 31
    # comb's multiplicative formula rounds and Pascal's rule does not
    for n_in in range(31):
        n = np.arange(n_in + 1)
        m = n[:, None]
        surv = np.where(m <= n[None, :], n[None, :] - m, 0)
        for eta in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
            mat = comb(n[None, :], m) * eta**m * (1.0 - eta) ** surv
            ref = np.where(m <= n[None, :], mat, 0.0)
            assert detector.loss_matrix(n_in, eta).tobytes() == ref.tobytes()


def test_loss_matrix_column_stochastic():
    l = detector.loss_matrix(9, 0.42)
    assert np.max(np.abs(l.sum(axis=0) - 1.0)) < 1e-12


def test_convolution_trivial_rows():
    c = detector.convolution_matrix(_tc(1.0), 5)
    assert c[0, 0] == 1.0 and np.max(np.abs(c[1:, 0])) == 0.0
    assert abs(c[1, 1] - 1.0) < 1e-12 and abs(c[0, 1]) < 1e-12


def test_convolution_two_photons_uniform():
    c = detector.convolution_matrix(_tc(1.0), 2)
    assert abs(c[1, 2] - 1.0 / 8.0) < 1e-12
    assert abs(c[2, 2] - 7.0 / 8.0) < 1e-12


def test_convolution_column_stochastic():
    c = detector.convolution_matrix(_tc(1.0), 12)
    assert np.max(np.abs(c.sum(axis=0) - 1.0)) < 1e-12


@pytest.mark.parametrize("bins", [1, 2, 3, 5, 8, 10])
def test_convolution_dp_matches_inclusion_exclusion(bins):
    c = detector.convolution_matrix(_tc(1.0, bins=bins), 20)
    ref = oracles.convolution_matrix_inclusion_exclusion(bins, 20)
    assert np.max(np.abs(c - ref)) < 1e-12


@pytest.mark.parametrize("bins", [32, 64])
def test_convolution_many_bins(bins):
    n_max = 40
    c = detector.convolution_matrix(_tc(1.0, bins=bins), n_max)
    assert c.shape == (bins + 1, n_max + 1)
    assert np.min(c) >= 0.0
    assert np.max(np.abs(c.sum(axis=0) - 1.0)) < 1e-12
    for n in range(n_max + 1):
        ref = oracles.click_distribution_stirling(n, bins)
        assert np.max(np.abs(c[:, n] - ref)) < 1e-12


# the bare TMD's click POVM on one mode is diagonal: element k is
# diag(click_matrix(config, cutoff)[k])


def test_tmd_povm_zero_efficiency():
    d = detector.click_matrix(_tc(0.0), 5)
    assert np.allclose(d[0], 1.0)
    assert np.max(np.abs(d[1:])) == 0.0


def test_tmd_povm_single_photon_perfect_eta():
    d = detector.click_matrix(_tc(1.0), 5)
    assert abs(d[1, 1] - 1.0) < 1e-12


def test_tmd_povm_matches_click_matrix():
    cfg = _tc(0.1)
    ref = oracles.convolution_matrix_inclusion_exclusion(cfg.bins, 6)
    ref = ref @ oracles.loss_matrix_bruteforce(6, 0.1)
    assert np.max(np.abs(detector.click_matrix(cfg, 6) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# weak homodyne POVM


def test_homodyne_completeness_and_psd():
    povm = detector.homodyne_povm(_det(), 3)
    assert len(povm.elements) == 9
    assert povm.completeness_deficit() < 1e-6
    for e in povm.elements:
        w = np.linalg.eigvalsh(e.operator.matrix)
        assert w[0] > -1e-9
        assert w[-1] < 1.0 + 1e-8


def test_homodyne_no_lo_no_mixing_reduces_to_tmd():
    povm = detector.homodyne_povm(_det(amp=0.0, r=1.0), 3)
    bare = detector.click_matrix(_tc(0.1), 3)
    for k, e in enumerate(povm.elements):
        assert np.max(np.abs(e.operator.matrix - np.diag(bare[k]))) < 1e-12


def test_homodyne_builds_one_click_matrix(monkeypatch):
    # the LO arm is not read, so only the signal-aligned arm's TMD is built
    seen = []
    original = detector.click_matrix

    def counting(config, cutoff):
        seen.append(config)
        return original(config, cutoff)

    monkeypatch.setattr(detector, "click_matrix", counting)
    detector.homodyne_povm(_det(), 2)
    assert seen == [_tc(0.1)]


def test_homodyne_two_path_probability_consistency():
    # independent path: dense expm evolution of LO (x) signal, then click weights
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    cfg = _tc(0.23)
    det = DetectorConfig(1.0, 0.9, 0.37, cfg)
    povm = detector.homodyne_povm(det, 3)

    lo_cut = fock.adaptive_lo_cutoff(1.0)
    pad = 3 + lo_cut
    lo_vec, _ = fock.coherent_amplitudes(det.lo_alpha, lo_cut)
    lo_pad = np.zeros(pad + 1, complex)
    lo_pad[: lo_cut + 1] = lo_vec
    rho_pad = np.zeros((pad + 1, pad + 1), complex)
    rho_pad[:4, :4] = rho
    u = oracles.bs_unitary_dense(0.37, pad, pad)
    sigma = np.kron(np.outer(lo_pad, lo_pad.conj()), rho_pad)
    diag = np.real(np.diag(u @ sigma @ u.conj().T)).reshape(pad + 1, pad + 1)
    d_live = detector.click_matrix(cfg, pad)
    for e in povm.elements:
        p_trace = float(np.real(np.trace(rho @ e.operator.matrix)))
        p_direct = float(np.sum(diag * d_live[e.outcome][None, :]))
        assert abs(p_trace - p_direct) < 1e-8


def test_homodyne_phase_covariance():
    phi = 0.37
    base = detector.homodyne_povm(_det(phase=0.2), 3)
    moved = detector.homodyne_povm(_det(phase=0.2 + phi), 3)
    rot = np.diag(np.exp(1j * np.arange(4) * phi))
    for a, b in zip(base.elements, moved.elements):
        expect = rot @ a.operator.matrix @ rot.conj().T
        assert np.max(np.abs(b.operator.matrix - expect)) < 1e-8


def test_homodyne_mixed_lo_components():
    # a mixture is the weighted sum of the pure-LO POVMs of its components.
    # Each pure POVM takes the LO cutoff of its own amplitude; the 1.0 and 0.6
    # components share the minimum cutoff, and next to the 2.5 component only
    # amplitudes of at most 0.5 appear, whose tails beyond that minimum are
    # below 1e-17, so all POVMs agree on one truncation to roundoff
    assert fock.adaptive_lo_cutoff(2.5) > fock.adaptive_lo_cutoff(1.0) == 12
    mixtures = [
        [(0.5, 1.0), (0.3, 1.0 * np.exp(1j * 0.5)), (0.2, 0.6 * np.exp(1j * 0.1))],
        [(0.6, 0.5 * np.exp(1j * 0.4)), (0.4, 0.0)],
        [(0.25, 2.5 * np.exp(1j * 0.2)), (0.5, 0.5 * np.exp(-1j * 0.7)), (0.25, 0.3)],
    ]
    det = _det()
    for comps in mixtures:
        mixed = detector.homodyne_povm(det, 3, lo_components=comps)
        pures = [detector.homodyne_povm(_det(amp=abs(a), phase=np.angle(a)), 3) for _, a in comps]
        assert len(mixed.elements) == 9
        for i, m in enumerate(mixed.elements):
            expect = sum(w * p.elements[i].operator.matrix for (w, _), p in zip(comps, pures))
            assert all(p.elements[i].outcome == m.outcome for p in pures)
            assert np.max(np.abs(m.operator.matrix - expect)) < 1e-12
        assert mixed.completeness_deficit() < 1e-6


@pytest.mark.parametrize("setting", [0.0, np.pi / 2])
@pytest.mark.parametrize("error", [0.01, -0.01])
def test_homodyne_one_component_list_is_the_shifted_pure_lo(setting, error):
    # a static phase error travels as a one-component LO on the nominal setting
    nominal = _det(phase=setting)
    shifted = replace(nominal, lo_phase=setting + error)
    one = detector.homodyne_povm(nominal, 3, lo_components=[(1.0, shifted.lo_alpha)])
    pure = detector.homodyne_povm(shifted, 3)
    for a, b in zip(one.elements, pure.elements):
        assert a.outcome == b.outcome
        assert np.array_equal(a.operator.matrix, b.operator.matrix)
    # None is the one-component list of the setting's own LO, bit for bit
    listed = detector.homodyne_povm(shifted, 3, lo_components=[(1.0, shifted.lo_alpha)])
    for a, b in zip(listed.elements, pure.elements):
        assert a.outcome == b.outcome
        assert np.array_equal(a.operator.matrix, b.operator.matrix)


@pytest.mark.parametrize("amp", [0.0, 1.0, 2.5])
def test_homodyne_component_count_selects_no_path(amp):
    # every LO takes one contraction: zero-weight components (no larger
    # than the LO, so the LO cutoff stays) change no bit, and four equal
    # quarters of the LO give the pure LO to roundoff (a separate
    # one-component path differs from it by up to 3.3e-16)
    det = _det(amp=amp, phase=0.7)
    pure = detector.homodyne_povm(det, 3)
    padded = [(1.0, det.lo_alpha), (0.0, 0.5 * det.lo_alpha), (0.0, 0.3j * amp)]
    quarters = [(0.25, det.lo_alpha)] * 4
    for comps, tol in [(padded, 0.0), (quarters, 2e-16)]:
        povm = detector.homodyne_povm(det, 3, lo_components=comps)
        for a, b in zip(povm.elements, pure.elements):
            assert a.outcome == b.outcome
            assert np.max(np.abs(a.operator.matrix - b.operator.matrix)) <= tol


@pytest.mark.parametrize(
    "comps",
    [
        [(float("nan"), 1.0)],
        [(0.5, 1.0), (float("nan"), 0.5)],
        [(float("inf"), 1.0)],
        [(1.0, complex(float("nan"), 0.0))],
        [(0.5, 1.0), (0.5, float("inf"))],
    ],
)
def test_homodyne_rejects_non_finite_lo_components(comps):
    with pytest.raises(ValueError, match="LO component"):
        detector.homodyne_povm(_det(), 3, lo_components=comps)


@pytest.mark.parametrize(
    "amp, phase",
    [(float("nan"), 0.0), (float("inf"), 0.0), (-1.0, 0.0), (1.0, float("nan")), (1.0, float("inf"))],
)
def test_detector_config_rejects_non_finite_lo(amp, phase):
    with pytest.raises(ValueError, match="lo_"):
        _det(amp=amp, phase=phase)


def test_homodyne_large_amplitude_uses_larger_cutoff():
    det = _det(amp=2.5)
    povm = detector.homodyne_povm(det, 3)
    assert povm.completeness_deficit() < 1e-6


def test_povm_set_rejects_incomplete():
    povm = detector.homodyne_povm(_det(), 3)
    with pytest.raises(ValueError):
        detector.PovmSet(povm.elements[:4])


# ---------------------------------------------------------------------------
# Wigner functions


def _op(diag):
    d = len(diag)
    return fock.FockOperator(fock.HilbertSpec((d - 1,)), np.diag(diag).astype(complex))


def test_genlaguerre_matches_scipy_bit_for_bit():
    # the recurrence scipy runs for an integer degree, times the Pascal
    # binomial, which equals scipy's while n + k <= 30
    x = np.linspace(0.0, 30.0, 2001)
    for n in range(31):
        for k in range(31 - n):
            assert detector._genlaguerre(n, k, x).tobytes() == eval_genlaguerre(n, k, x).tobytes()


def test_wigner_vacuum_and_single_photon_at_origin():
    origin = (np.array([0.0]), np.array([0.0]))
    w_vac = detector.wigner_of_operator(_op([1.0, 0, 0, 0]), *origin)[0, 0]
    w_one = detector.wigner_of_operator(_op([0.0, 1, 0, 0]), *origin)[0, 0]
    assert abs(w_vac - 1.0 / np.pi) < 1e-12
    assert abs(w_one + 1.0 / np.pi) < 1e-12


def test_wigner_density_matrix_integrates_to_one():
    vec, _ = fock.coherent_amplitudes(1.0, 12)
    rho = np.outer(vec, vec.conj())
    xs = np.linspace(-6, 6, 121)
    W = detector.wigner_of_operator(fock.FockOperator(fock.HilbertSpec((12,)), rho), xs, xs)
    dx = xs[1] - xs[0]
    assert abs(W.sum() * dx * dx - 1.0) < 1e-6


def test_wigner_matches_displaced_parity_oracle():
    rng = np.random.default_rng(32)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    op = fock.FockOperator(fock.HilbertSpec((3,)), rho)
    for x, p in [(0.3, -0.7), (1.1, 0.4), (-2.0, 1.5)]:
        a = detector.wigner_of_operator(op, np.array([x]), np.array([p]))[0, 0]
        b = oracles.wigner_displaced_parity(rho, x, p)
        assert abs(a - b) < 1e-10


def test_wigner_identity_flat_in_cesaro_sense():
    # pointwise the truncated kernel sum oscillates; the average of two
    # consecutive cutoffs settles near the flat value 1/(2 pi)
    pts = [(0.3, 0.2), (0.7, 0.3), (1.0, -0.8), (2.0, 0.0)]
    grid = np.linspace(-5.0, 5.0, 201)
    w20 = detector.wigner_of_operator(_op([1.0] * 21), grid, grid)
    w21 = detector.wigner_of_operator(_op([1.0] * 22), grid, grid)
    for x, p in pts:
        a = detector.wigner_of_operator(_op([1.0] * 21), np.array([x]), np.array([p]))[0, 0]
        b = detector.wigner_of_operator(_op([1.0] * 22), np.array([x]), np.array([p]))[0, 0]
        assert abs(0.5 * (a + b) - 1.0 / (2 * np.pi)) < 0.05 / (2 * np.pi)
    assert w20.shape == (201, 201) and w21.shape == (201, 201)


def test_wigner_povm_phase_asymmetry_and_rotation():
    # with a real LO the cross term couples to the p quadrature, so the
    # phase-0 click elements are p-asymmetric and x-symmetric, and the
    # pi/2 setting is the pi/2 phase-space rotation of the 0 setting
    p0 = detector.homodyne_povm(_det(phase=0.0), 3)
    p90 = detector.homodyne_povm(_det(phase=np.pi / 2), 3)
    xs = np.linspace(-3, 3, 31)
    for beta in (1, 2, 3):
        w0 = detector.wigner_of_operator(p0.elements[beta].operator, xs, xs)
        w90 = detector.wigner_of_operator(p90.elements[beta].operator, xs, xs)
        assert np.max(np.abs(w0 - w0[:, ::-1])) > 1e-4  # asymmetric under p -> -p
        assert np.max(np.abs(w0 - w0[::-1, :])) < 1e-12  # symmetric under x -> -x
        # W_{pi/2}(x, p) = W_0(p, -x)
        w_ref = np.array(
            [
                [
                    detector.wigner_of_operator(
                        p0.elements[beta].operator, np.array([p]), np.array([-x])
                    )[0, 0]
                    for p in xs
                ]
                for x in xs
            ]
        )
        assert np.max(np.abs(w90 - w_ref)) < 1e-8


# ---------------------------------------------------------------------------
# serialization


def test_povm_json_round_trip():
    povm = detector.homodyne_povm(_det(), 3)
    doc = json.loads(json.dumps(detector.povm_set_to_json(povm)))
    setting, outcomes, mats = oracles.povm_from_json(doc)
    assert outcomes == [e.outcome for e in povm.elements]
    for e, mat in zip(povm.elements, mats):
        assert np.max(np.abs(e.operator.matrix - mat)) < 1e-15
    assert setting["kind"] == "homodyne"
    assert setting["reflectivity"] == 0.5
    assert setting["tmd"] == {"bins": 8, "efficiency": 0.1}
