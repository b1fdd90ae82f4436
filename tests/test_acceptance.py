"""End-to-end acceptance gate.

Each test prints exactly one verdict line (with capture suspended, so the
line is visible in the live run output even when the test passes) of the
form

    CRITERION <n>: PASS|FAIL  <computed vs target details>

and then asserts the verdict.  Criteria that the toolkit genuinely cannot
meet fail here on purpose; the targets are never loosened to force green.
"""

import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from entcert import bound, detector, fock, negativity, sdp

import oracles


def _verdict(capsys, num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print("\n" + line)
    return line


@lru_cache(maxsize=None)
def _operators(alpha, reflectivity, eta, phases, cutoff):
    tmd = detector.TmdConfig(8, eta)
    det = detector.DetectorConfig(alpha, 0.0, reflectivity, tmd)
    return tuple(bound.build_measurements(det, det, phases=phases, signal_cutoff=cutoff))


def _subtracted(lam, transmission, apd, n_max=3):
    ini = fock.two_mode_squeezed(fock.SqueezedParams(lam, n_max))
    sub, _ = fock.photon_subtracted_conditional(ini, fock.SubtractionParams(transmission, apd))
    return ini, sub


def _certify(state, ops, epsilon=0.0):
    data = bound.simulate_expectations(state, list(ops))
    ms = bound.MeasurementSet(list(ops), data)
    if epsilon > 0.0:
        res = bound.lower_bound_negativity_robust(ms, epsilon)
    else:
        res = bound.lower_bound_negativity(ms)
    chk = bound.verify_bound(ms, res)
    return res, bool(chk["feasible"] and chk["bound_matches"])


def test_criterion_1_closed_form_squeezed_negativity(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for lam in (0.1, 0.2, 0.3):
        st = fock.two_mode_squeezed(fock.SqueezedParams(lam, 30))
        ln = negativity.exact_log_negativity(st).log_negativity
        worst = max(worst, abs(ln - negativity.closed_form_squeezed_ln(lam)))
    ln3 = negativity.exact_log_negativity(
        fock.two_mode_squeezed(fock.SqueezedParams(0.2, 3))
    ).log_negativity
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and abs(ln3 - 0.5803) < 1e-3 and elapsed < 1.0
    line = _verdict(
        capsys,
        1,
        ok,
        f"closed-form dev {worst:.2e} (tol 1e-6); n_max=3 LN {ln3:.7f} "
        f"vs 0.5803+-0.001; {elapsed:.2f}s (<1s)",
    )
    assert ok, line


def test_criterion_2_ideal_subtracted_state(capsys):
    t0 = time.monotonic()
    _, sub = _subtracted(0.2, 0.95, 0.20)
    ln = negativity.exact_log_negativity(sub).log_negativity
    # lossless-detector variant, for context in the verdict line only
    ideal = fock.photon_subtracted_ideal(fock.SqueezedParams(0.2, 3), 0.95)
    ln_ideal = negativity.exact_log_negativity(ideal).log_negativity
    elapsed = time.monotonic() - t0
    ok = abs(ln - 0.7309) < 1e-3 and elapsed < 1.0
    line = _verdict(
        capsys,
        2,
        ok,
        f"conditional-state LN {ln:.7f} vs 0.7309+-0.001 "
        f"(single-photon-projection variant {ln_ideal:.7f}); {elapsed:.2f}s (<1s)",
    )
    assert ok, line


def test_criterion_3_error_budget_table(capsys):
    # A bound at budget eps must hold for every physical state whose moments
    # lie within eps of the data, so for eps > 0 the reference is the log
    # negativity of such a state (oracles.ERROR_BOX_LN, checked by
    # oracles.check_in_box_state): the bound may not exceed it and must come
    # within tol of it.  The paper's values are printed alongside; each lies
    # above the LN of an in-box state, so no sound bound can reach them.
    t0 = time.monotonic()
    _, sub = _subtracted(0.2, 0.95, 0.20)
    ops = _operators(1.0, 0.5, 0.1, (0.0, math.pi / 2.0), 3)
    paper = {0.0: 0.7308, 0.001: 0.7185, 0.01: 0.6660, 0.1: 0.3034}
    tols = {0.0: 0.01, 0.001: 0.01, 0.01: 0.01, 0.1: 0.02}
    parts = []
    ok = True
    for eps, tol in tols.items():
        res, verified = _certify(sub, ops, eps)
        value = res.lower_bound
        if eps == 0.0:
            hit = verified and abs(value - paper[eps]) <= tol
            parts.append(f"eps=0.0: {value:.7f} vs {paper[eps]}+-{tol}{'' if hit else ' MISS'}")
        else:
            ref = oracles.ERROR_BOX_LN[eps]
            hit = verified and value <= ref and ref - value <= tol
            parts.append(
                f"eps={eps}: {value:.7f} vs in-box LN {ref} (<=, within {tol}; "
                f"paper {paper[eps]}){'' if hit else ' MISS'}"
            )
        ok = ok and hit
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    line = _verdict(capsys, 3, ok, "; ".join(parts) + f"; {elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_4_squeezing_sweep(capsys):
    t0 = time.monotonic()
    ops = _operators(1.0, 0.5, 0.1, (0.0, math.pi / 2.0), 3)
    errors = []
    all_verified = True
    for lam in (0.1, 0.15, 0.2, 0.25, 0.3):
        _, sub = _subtracted(lam, 0.9, 0.15)
        exact = negativity.exact_log_negativity(sub).log_negativity
        res, verified = _certify(sub, ops)
        all_verified = all_verified and verified
        errors.append((exact - res.lower_bound) / exact * 100.0)
    elapsed = time.monotonic() - t0
    cap_ok = all(e <= 9.0 for e in errors)
    trend_ok = all(b < a for a, b in zip(errors, errors[1:]))
    ok = cap_ok and trend_ok and all_verified and elapsed < 300.0
    line = _verdict(
        capsys,
        4,
        ok,
        "errors% " + "/".join(f"{e:.3f}" for e in errors)
        + f"; cap<=9% {'ok' if cap_ok else 'MISS'}"
        + f"; decreasing-in-lambda {'ok' if trend_ok else 'MISS (errors increase)'}"
        + f"; {elapsed:.1f}s (<300s)",
    )
    assert ok, line


def test_criterion_5_transmission_sweep(capsys):
    t0 = time.monotonic()
    ops = _operators(1.0, 0.5, 0.1, (0.0, math.pi / 2.0), 3)
    errors = []
    all_verified = True
    for transmission in (0.80, 0.85, 0.90, 0.95, 0.99):
        _, sub = _subtracted(0.2, transmission, 0.15)
        exact = negativity.exact_log_negativity(sub).log_negativity
        res, verified = _certify(sub, ops)
        all_verified = all_verified and verified
        errors.append((exact - res.lower_bound) / exact * 100.0)
    elapsed = time.monotonic() - t0
    cap_ok = all(e <= 11.0 for e in errors)
    trend_ok = all(b < a for a, b in zip(errors, errors[1:]))
    ok = cap_ok and trend_ok and all_verified and elapsed < 300.0
    line = _verdict(
        capsys,
        5,
        ok,
        "errors% " + "/".join(f"{e:.3f}" for e in errors)
        + f"; cap<=11% {'ok' if cap_ok else 'MISS'}"
        + f"; decreasing-in-T {'ok' if trend_ok else 'MISS'}"
        + f"; {elapsed:.1f}s (<300s)",
    )
    assert ok, line


def test_criterion_6_phase_noise_windows(capsys):
    t0 = time.monotonic()
    _, sub = _subtracted(0.2, 0.9, 0.15)
    exact = negativity.exact_log_negativity(sub).log_negativity
    tmd = detector.TmdConfig(8, 0.1)
    det = detector.DetectorConfig(1.0, 0.0, 0.5, tmd)
    cases = [
        ("static eps=0.1", bound.PhaseNoiseModel("static_calibration", epsilon=0.1, seed=20), 1.0),
        ("averaged dtheta=0.4", bound.PhaseNoiseModel("phase_averaged", width=0.4, seed=21), 10.0),
        ("averaged dtheta=0.6", bound.PhaseNoiseModel("phase_averaged", width=0.6, seed=22), 15.0),
    ]
    parts = []
    ok = True
    for name, model, window in cases:
        results = bound.noise_trials(sub, det, det, model, trials=20)
        devs = [(r.lower_bound - exact) / exact * 100.0 for r in results]
        worst = max(abs(d) for d in devs)
        hit = worst < window
        ok = ok and hit
        parts.append(f"{name}: worst {worst:.3f}% (<{window}%){'' if hit else ' MISS'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    line = _verdict(capsys, 6, ok, "; ".join(parts) + f"; {elapsed:.1f}s (<600s)")
    assert ok, line


def test_criterion_7_reflectivity_accuracy(capsys):
    t0 = time.monotonic()
    _, sub = _subtracted(0.1, 0.9, 0.15)
    exact = negativity.exact_log_negativity(sub).log_negativity
    parts = []
    ok = True
    # alpha = 2.5 minimizes the error over the allowed amplitudes at every
    # listed reflectivity (errors grow monotonically as alpha shrinks)
    for refl in (0.80, 0.90, 0.99):
        ops = _operators(2.5, refl, 0.1, (0.0, math.pi / 2.0), 3)
        res, verified = _certify(sub, ops)
        err = (exact - res.lower_bound) / exact * 100.0
        hit = verified and err < 0.2
        ok = ok and hit
        parts.append(
            f"R={refl}: err {err:.3f}% ({res.solver_status}){'' if hit else ' MISS'}"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    line = _verdict(capsys, 7, ok, "; ".join(parts) + f"; target <0.2%; {elapsed:.1f}s (<300s)")
    assert ok, line


def test_criterion_8_soundness_suite(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    n_maxes = [1] * 20 + [2] * 25 + [3] * 5
    overclaim = 0.0
    worst_deficit = 0.0
    nested_break = 0.0
    all_verified = True
    for idx, n_max in enumerate(n_maxes):
        d = (n_max + 1) ** 2
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        state = fock.TruncatedState(fock.HilbertSpec((n_max, n_max)), rho)
        exact = negativity.exact_log_negativity(state).log_negativity

        alpha = rng.uniform(0.5, 2.0)
        refl = rng.uniform(0.3, 0.9)
        eta = rng.uniform(0.05, 0.3)
        second = math.pi / 2.0 if idx % 3 else rng.uniform(0.8, 2.3)
        phases = (0.0, second)
        tmd = detector.TmdConfig(8, eta)
        det = detector.DetectorConfig(alpha, 0.0, refl, tmd)
        for phase in phases:
            povm = detector.homodyne_povm(replace(det, lo_phase=phase), n_max)
            worst_deficit = max(worst_deficit, povm.completeness_deficit())

        ops = bound.build_measurements(det, det, phases=phases, signal_cutoff=n_max)
        data = bound.simulate_expectations(state, ops)
        ms = bound.MeasurementSet(ops, data)
        res = bound.lower_bound_negativity(ms)
        chk = bound.verify_bound(ms, res)
        all_verified = all_verified and chk["feasible"] and chk["bound_matches"]
        overclaim = max(overclaim, res.lower_bound - exact)

        keep = [0] + [k for k in range(1, len(ops)) if rng.uniform() < 0.6]
        sub_ms = bound.MeasurementSet([ops[k] for k in keep], data[keep])
        res_sub = bound.lower_bound_negativity(sub_ms)
        nested_break = max(nested_break, res_sub.lower_bound - res.lower_bound)

    elapsed = time.monotonic() - t0
    ok = (
        overclaim <= 1e-6
        and all_verified
        and worst_deficit <= 1e-6
        and nested_break <= 1e-7
        and elapsed < 600.0
    )
    line = _verdict(
        capsys,
        8,
        ok,
        f"50 random configs: max(bound-exact) {overclaim:.2e} (<=1e-6); "
        f"all witnesses re-verify {all_verified}; POVM deficit {worst_deficit:.2e} "
        f"(<=1e-6); nested-monotonicity break {nested_break:.2e} (<=1e-7); "
        f"{elapsed:.1f}s (<600s)",
    )
    assert ok, line


def test_criterion_9_solver_suite(capsys):
    toys = []
    prog = sdp.ConicProgram([1.0], [(np.eye(2), np.array([[[1.0, 0.0], [0.0, -1.0]]]))])
    toys.append((prog, 1.0))
    blocks = [
        (np.array([[1.0]]), np.array([[[1.0]], [[0.0]]])),
        (np.array([[1.0]]), np.array([[[0.0]], [[1.0]]])),
        (np.array([[1.0]]), np.array([[[-1.0]], [[0.0]]])),
        (np.array([[1.0]]), np.array([[[0.0]], [[-1.0]]])),
    ]
    toys.append((sdp.ConicProgram([1.0, 1.0], blocks), 2.0))
    fs = np.zeros((2, 4, 4))
    fs[0] = np.diag([1.0, 0.0, -1.0, 0.0])
    fs[1] = np.diag([0.0, 1.0, 0.0, -1.0])
    toys.append((sdp.ConicProgram([1.0, 1.0], [(np.eye(4), fs)]), 2.0))

    toy_gap = 0.0
    toy_dev = 0.0
    for prog, target in toys:
        sol = sdp.solve(prog, gap_tol=1e-9)
        assert sol.status == "optimal"
        toy_gap = max(toy_gap, sol.duality_gap)
        toy_dev = max(toy_dev, abs(sol.objective_value - target))

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        m, n = 5, 4
        c = rng.normal(size=m)
        y0 = rng.normal(size=m) * 0.3
        matrix_blocks = []
        for _ in range(2):
            fs = np.array([0.5 * (a + a.T) for a in rng.normal(size=(m, n, n))])
            f0 = np.tensordot(y0, fs, axes=(0, 0)) + np.eye(n) * (0.5 + rng.uniform())
            matrix_blocks.append((f0, fs))
        blocks = list(matrix_blocks)
        for j in range(m):
            e = np.zeros((m, 1, 1))
            e[j, 0, 0] = 1.0
            blocks.append((np.array([[10.0]]), e))
            blocks.append((np.array([[10.0]]), -e))
        sol = sdp.solve(sdp.ConicProgram(c, blocks), gap_tol=1e-9)
        lo, hi, _ = oracles.cutting_plane_maximize(
            c, matrix_blocks, box=10.0, interior=y0, obj_tol=1e-6
        )
        worst = max(worst, abs(sol.objective_value - 0.5 * (lo + hi)))

    ok = toy_gap < 1e-7 and toy_dev < 1e-7 and worst < 1e-4
    line = _verdict(
        capsys,
        9,
        ok,
        f"toy duality gap {toy_gap:.2e} (<1e-7), toy objective dev {toy_dev:.2e}; "
        f"20 random programs vs cutting-plane oracle: worst dev {worst:.2e} (<1e-4)",
    )
    assert ok, line
