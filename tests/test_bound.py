"""Unit tests for measurement assembly and the witness-SDP bound pipeline."""

import math

import numpy as np
import pytest

from entcert import bound, cli, detector, fock, sdp
from entcert.bound import (
    BoundResult,
    MeasurementSet,
    PhaseNoiseModel,
    apply_phase_noise,
    bound_result_from_json,
    bound_result_to_json,
    build_measurements,
    lower_bound_negativity,
    lower_bound_negativity_robust,
    noise_trials,
    reconcile_expectations,
    simulate_expectations,
    verify_bound,
)
from entcert.detector import DetectorConfig, TmdConfig, homodyne_povm
from entcert.fock import FockOperator, HilbertSpec, SqueezedParams, SubtractionParams
from entcert.negativity import exact_log_negativity

import oracles


def toy_detector(eta=0.1, amplitude=1.0):
    tmd = TmdConfig(bins=8, efficiency=eta)
    return DetectorConfig(
        lo_amplitude=amplitude, lo_phase=0.0, reflectivity=0.5, tmd_c=tmd, tmd_d=tmd
    )


def table_point_state(transmission, n_max=3, lam=0.2, apd=0.2):
    tmsv = fock.two_mode_squeezed(SqueezedParams(lam, n_max))
    st, _ = fock.photon_subtracted_conditional(
        tmsv, SubtractionParams(transmission=transmission, apd_efficiency=apd), mode=0
    )
    return st


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def spanning_effects(space):
    """Identity plus one effect per Hermitian basis direction: full information."""
    n = space.dim
    ops = [FockOperator(space, np.eye(n, dtype=complex))]
    for b in bound._hermitian_basis(n):
        ops.append(FockOperator(space, 0.5 * (np.eye(n) + 0.9 * b)))
    return ops


def random_effects(rng, space, count):
    """Identity plus random strictly-interior effects (incomplete in general)."""
    n = space.dim
    ops = [FockOperator(space, np.eye(n, dtype=complex))]
    for _ in range(count):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.5 * (g + g.conj().T)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        ops.append(FockOperator(space, 0.5 * (np.eye(n) + 0.9 * h)))
    return ops


# ---------------------------------------------------------------------------
# measurement assembly


def test_build_measurements_count_and_identity_first():
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    assert len(ops) == 1 + 8 * 8
    assert np.allclose(ops[0].matrix, np.eye(9))
    ms = MeasurementSet(ops, simulate_expectations(table_point_state(0.9, n_max=2), ops))
    assert ms.identity_index == 0
    assert ms.expectations[0] == 1.0


def test_build_measurements_ordering():
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    mode = []
    for phase in (0.0, math.pi / 2.0):
        povm = homodyne_povm(
            DetectorConfig(
                lo_amplitude=det.lo_amplitude,
                lo_phase=phase,
                reflectivity=det.reflectivity,
                tmd_c=det.tmd_c,
                tmd_d=det.tmd_d,
            ),
            2,
        )
        by_outcome = {e.outcome: e.operator.matrix for e in povm.elements}
        mode.extend(by_outcome[b] for b in (0, 1, 2, 3))
    # 1-based pair (j, k) sits at list position (j-1)*8 + k after the identity
    for j, k in ((1, 1), (6, 1), (3, 7), (8, 8)):
        got = ops[(j - 1) * 8 + k].matrix
        assert np.allclose(got, np.kron(mode[j - 1], mode[k - 1]), atol=1e-12)


def test_build_measurements_unknown_outcome_raises():
    det = toy_detector()
    with pytest.raises(ValueError):
        build_measurements(det, det, outcomes=(0, 1, 2, 99), signal_cutoff=2)


def test_measurement_set_validation():
    space = HilbertSpec((1, 1))
    eye = FockOperator(space, np.eye(4, dtype=complex))
    half = FockOperator(space, 0.5 * np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        MeasurementSet([eye, eye], [1.0, 1.0])  # identity twice
    with pytest.raises(ValueError):
        MeasurementSet([eye, half], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        MeasurementSet([eye, half], [1.0, 1.5])  # expectation above 1
    with pytest.raises(ValueError):
        MeasurementSet([eye, half], [0.7, 0.5])  # identity expectation not 1
    with pytest.raises(ValueError):
        MeasurementSet(
            [eye, FockOperator(space, 2.0 * np.eye(4, dtype=complex))], [1.0, 0.5]
        )  # operator above I
    with pytest.raises(ValueError):
        MeasurementSet([eye, half], [1.0, 0.5], includes_identity=False)
    ms = MeasurementSet([half, eye], [0.5, 1.0])
    assert ms.identity_index == 1


def test_simulate_expectations_accepts_list_and_set():
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    vals = simulate_expectations(st, ops)
    assert vals[0] == 1.0
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    ms = MeasurementSet(ops, vals)
    again = simulate_expectations(st, ms)
    assert np.array_equal(vals, again)
    other = fock.two_mode_squeezed(SqueezedParams(0.2, 3))
    with pytest.raises(ValueError):
        simulate_expectations(other, ops)


# ---------------------------------------------------------------------------
# witness bound: tightness, soundness, monotonicity


def test_complete_data_reaches_trace_norm():
    rng = np.random.default_rng(5)
    space = HilbertSpec((1, 1))
    ops = spanning_effects(space)
    rho = random_density(rng, 4)
    st = fock.TruncatedState(space, rho)
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity(ms)
    ref = exact_log_negativity(st)
    assert res.solver_status == "optimal"
    # full information makes the witness optimum the exact trace norm
    assert abs(2.0**res.lower_bound - ref.trace_norm) < 1e-5
    assert verify_bound(ms, res)["feasible"]


def test_product_state_bound_zero_not_degenerate():
    rng = np.random.default_rng(11)
    space = HilbertSpec((1, 1))
    ops = spanning_effects(space)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    st = fock.TruncatedState(space, rho)
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity(ms)
    assert 0.0 <= res.lower_bound < 1e-6
    assert not res.degenerate
    assert res.linear_objective > 0.999


def test_incomplete_data_never_overclaims():
    space = HilbertSpec((1, 1))
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        ops = random_effects(rng, space, 6)
        st = fock.TruncatedState(space, random_density(rng, 4))
        ms = MeasurementSet(ops, simulate_expectations(st, ops))
        res = lower_bound_negativity(ms)
        ref = exact_log_negativity(st)
        assert res.lower_bound <= ref.log_negativity + 5e-7
        chk = verify_bound(ms, res)
        assert chk["feasible"]
        assert chk["bound_matches"]
        assert chk["h_norm"] <= 1.0 + 1e-9


def test_more_measurements_never_hurt():
    rng = np.random.default_rng(42)
    space = HilbertSpec((1, 1))
    ops = random_effects(rng, space, 9)
    st = fock.TruncatedState(space, random_density(rng, 4))
    full = MeasurementSet(ops, simulate_expectations(st, ops))
    sub = MeasurementSet(ops[:5], simulate_expectations(st, ops[:5]))
    b_full = lower_bound_negativity(full).lower_bound
    b_sub = lower_bound_negativity(sub).lower_bound
    assert b_sub <= b_full + 1e-7


def test_verify_bound_flags_broken_certificate():
    rng = np.random.default_rng(3)
    space = HilbertSpec((1, 1))
    ops = random_effects(rng, space, 6)
    st = fock.TruncatedState(space, random_density(rng, 4))
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity(ms)
    res.multipliers = res.multipliers + 0.5  # breaks the matrix inequality
    chk = verify_bound(ms, res)
    assert not chk["feasible"]


# ---------------------------------------------------------------------------
# robust variant


def test_robust_zero_budget_delegates():
    rng = np.random.default_rng(7)
    space = HilbertSpec((1, 1))
    ops = random_effects(rng, space, 6)
    st = fock.TruncatedState(space, random_density(rng, 4))
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    a = lower_bound_negativity(ms)
    b = lower_bound_negativity_robust(ms, 0.0)
    assert a.lower_bound == b.lower_bound
    with pytest.raises(ValueError):
        lower_bound_negativity_robust(ms, -0.1)


def test_robust_decreases_with_budget():
    rng = np.random.default_rng(8)
    space = HilbertSpec((1, 1))
    ops = spanning_effects(space)
    st = fock.TruncatedState(space, random_density(rng, 4))
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    b0 = lower_bound_negativity(ms).lower_bound
    assert b0 > 0.05  # seed chosen to give a clearly entangled instance
    vals = [
        lower_bound_negativity_robust(ms, eps).lower_bound
        for eps in (1e-9, 0.003, 0.01, 0.03)
    ]
    assert abs(vals[0] - b0) < 1e-5
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-8


def test_robust_covers_any_state_inside_the_box():
    rng = np.random.default_rng(9)
    space = HilbertSpec((1, 1))
    ops = spanning_effects(space)
    rho = random_density(rng, 4)
    st = fock.TruncatedState(space, rho)
    data = simulate_expectations(st, ops)
    eps = 0.05
    # a nearby state whose moments stay inside the relative error box
    sigma = 0.99 * rho + 0.01 * np.eye(4) / 4.0
    st2 = fock.TruncatedState(space, sigma)
    data2 = simulate_expectations(st2, ops)
    dev = np.abs(data2[1:] - data[1:])
    assert np.all(dev <= eps * data[1:])  # construction sanity
    ms = MeasurementSet(ops, data)
    rob = lower_bound_negativity_robust(ms, eps)
    ref2 = exact_log_negativity(st2)
    assert rob.lower_bound <= ref2.log_negativity + 5e-7


# ---------------------------------------------------------------------------
# frozen end-to-end values


def test_frozen_table_point_bound():
    st = table_point_state(0.95)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=3)
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity(ms)
    assert res.solver_status == "optimal"
    assert abs(res.lower_bound - 0.7287127) < 5e-5
    ref = exact_log_negativity(st)
    assert abs(ref.log_negativity - 0.7308780) < 1e-6
    assert res.lower_bound <= ref.log_negativity
    chk = verify_bound(ms, res)
    assert chk["feasible"] and chk["bound_matches"]


def _table_point_measurements():
    ops = build_measurements(toy_detector(), toy_detector(), signal_cutoff=3)
    st = table_point_state(0.95)
    return st, ops, MeasurementSet(ops, simulate_expectations(st, ops))


def test_robust_table_solves_stop_stalled(monkeypatch):
    # the first null-cut rung parks the moment residual just above feas_tol
    # once the gap has converged; the solve must say so instead of running
    # to its iteration cap, and since its polished certificate keeps the
    # objective, the ladder ends there
    _, _, ms = _table_point_measurements()
    solutions = []
    original = sdp.solve

    def recording(*args, **kwargs):
        solutions.append(original(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(sdp, "solve", recording)
    for eps in (1e-3, 1e-2):
        res = bound.lower_bound_negativity_robust(ms, eps)
        sol = solutions.pop()
        assert not solutions
        assert sol.status == sdp.STATUS_STALLED
        assert sol.iterations <= 40
        assert sol.info["history"][-1]["rel_gap"] < 1e-7
        assert sol.info["detail"]
        assert res.info["null_cut"] == bound.GRAM_NULL_CUT
        violation = max(0.0, sol.objective_value - sol.info["dual_objective"])
        assert res.info["weak_duality_violation"] == sol.info["weak_duality_violation"] == violation


def _replayed_stop(history, gap_tol=1e-7, feas_tol=1e-8):
    """Iteration and status at which the stop rule of sdp.solve ends a solve
    without equality constraints, replayed from its history: before the gap
    converges, progress is a 0.1% drop of the worst of gap and residuals
    below its best; after that, of the worst residual below its best since
    convergence."""
    best_score = best_res = math.inf
    progress = 0
    for it, rec in enumerate(history, start=1):
        res = max(rec["res_moment"], rec["res_slack"])
        score = max(rec["rel_gap"], res)
        converged = rec["rel_gap"] < gap_tol
        if converged:
            if res < (1.0 - sdp._STALL_GAIN) * best_res:
                progress = it
            best_res = min(best_res, res)
        elif score < (1.0 - sdp._STALL_GAIN) * best_score:
            progress = it
        best_score = min(best_score, score)
        if converged and res < feas_tol:
            return it, sdp.STATUS_OPTIMAL
        if converged and it - progress >= sdp._STALL_WINDOW:
            return it, sdp.STATUS_STALLED
    return len(history), None


def test_stall_rule_replays_from_history(monkeypatch):
    # after the gap converges, the gap keeps shrinking ~10% per iteration
    # while the moment residual stays parked; the solve stops on the
    # residuals alone, where a gauge that counted the gap would run on
    _, _, ms = _table_point_measurements()
    solutions = []
    original = sdp.solve

    def recording(*args, **kwargs):
        solutions.append(original(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(sdp, "solve", recording)
    for eps in (1e-3, 1e-2):
        bound.lower_bound_negativity_robust(ms, eps)
    assert any(sol.status == sdp.STATUS_STALLED for sol in solutions)
    for sol in solutions:
        history = sol.info["history"]
        assert len(history) == sol.iterations
        assert _replayed_stop(history) == (sol.iterations, sol.status)
        if sol.status == sdp.STATUS_STALLED:
            window = [rec["rel_gap"] for rec in history[-sdp._STALL_WINDOW - 1 :]]
            assert window[-1] < (1.0 - sdp._STALL_GAIN) * min(window[:-1])


def test_weak_duality_violation_reported_at_cli_table_point(monkeypatch):
    # at the CLI's default point the eps=1e-3 row parks a moment residual of
    # ~2e-8 that lets the primal objective exceed the dual; the reported
    # violation is max(0, primal - dual) of the returned iterate, with the
    # dual objective recomputed from the returned certificate
    cfg = cli.ExperimentConfig()
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = MeasurementSet(ops, simulate_expectations(state, ops))
    solves = []
    original = sdp.solve

    def recording(program, *args, **kwargs):
        solves.append((program, original(program, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(sdp, "solve", recording)
    res = bound.lower_bound_negativity_robust(ms, 1e-3)
    assert res.solver_status == sdp.STATUS_STALLED
    violation = res.info["weak_duality_violation"]
    assert 0.0 < violation < 5e-4
    program, sol = solves[bound._CUT_LADDER.index(res.info["null_cut"])]
    report = sdp.verify_solution(program, sol)
    expected = max(0.0, report["primal_objective"] - report["dual_objective"])
    assert violation == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_error_box_states_rebuild_and_check():
    # the in-box states behind oracles.ERROR_BOX_LN: rebuilt, re-checked by
    # the oracle, accepted by TruncatedState, and matching the frozen LN
    st, ops, _ = _table_point_measurements()
    mats = np.array([op.matrix for op in ops])
    states = oracles.in_box_states(mats, st.matrix, 4, 4)
    for eps, (rho, report) in states.items():
        assert report["ok"], (eps, report)
        accepted = fock.TruncatedState(st.space, rho)
        assert abs(report["log_negativity"] - oracles.ERROR_BOX_LN[eps]) < 1e-5
        assert abs(exact_log_negativity(accepted).log_negativity - report["log_negativity"]) < 1e-9
    # a state built for the wider box leaves the narrower one
    wide = oracles.check_in_box_state(states[0.01][0], mats, st.matrix, 1e-3, 4, 4)
    assert not wide["ok"] and wide["box_use"] > 1.0


# ---------------------------------------------------------------------------
# reconciliation of noisy data


def test_programs_hold_native_hermitian_blocks(monkeypatch):
    # at n_max=3 the witness and reconcile programs pass 16 x 16 complex
    # Hermitian blocks to the solver, not 32 x 32 real embeddings
    _, _, ms = _table_point_measurements()
    programs = []

    class Captured(Exception):
        pass

    def capture(program, **kwargs):
        programs.append(program)
        raise Captured

    monkeypatch.setattr(sdp, "solve", capture)
    with pytest.raises(Captured):
        lower_bound_negativity_robust(ms, 1e-3)
    with pytest.raises(Captured):
        reconcile_expectations(ms)
    for program in programs:
        assert max(program.block_sizes) == 16
        assert all(f0.dtype == complex for f0, _ in program.blocks if f0.shape[0] > 1)


def test_reconcile_exact_data_is_near_fixed_point():
    st = table_point_state(0.9)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=3)
    data = simulate_expectations(st, ops)
    ms = MeasurementSet(ops, data)
    fixed, info = reconcile_expectations(ms)
    assert info["fit_status"] == "optimal"
    assert info["fit_residual"] < 1e-6
    assert info["max_shift"] < 1e-6
    b0 = lower_bound_negativity(ms).lower_bound
    b1 = lower_bound_negativity(fixed).lower_bound
    assert abs(b1 - b0) < 2e-3


def test_reconcile_miscalibrated_data():
    # data recorded through phase-shifted detectors, certified with nominal ones
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    nominal = build_measurements(det, det, signal_cutoff=2)
    true_ops = build_measurements(
        det,
        det,
        phases=(0.05, math.pi / 2.0 + 0.05),
        signal_cutoff=2,
        phases2=(-0.03, math.pi / 2.0 - 0.03),
    )
    data = simulate_expectations(st, true_ops)
    ms = MeasurementSet(nominal, data)
    fixed, info = reconcile_expectations(ms)
    assert info["fit_status"] == "optimal"
    res = lower_bound_negativity(fixed)
    assert np.isfinite(res.lower_bound)
    assert verify_bound(fixed, res)["feasible"]


def test_reconcile_gross_corruption_stays_physical():
    # far outside the intended regime: the fit may not converge, but the
    # output must still be a physical moment vector and a sound certificate
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    data = simulate_expectations(st, ops)
    corrupted = data.copy()
    corrupted[5] = min(1.0, corrupted[5] * 1.02)
    corrupted[40] *= 0.98
    ms = MeasurementSet(ops, corrupted)
    fixed, info = reconcile_expectations(ms)
    assert info["fit_residual"] > 1e-6
    assert np.all(fixed.expectations >= 0.0) and np.all(fixed.expectations <= 1.0)
    res = lower_bound_negativity(fixed)
    assert np.isfinite(res.lower_bound)
    assert verify_bound(fixed, res)["feasible"]


# ---------------------------------------------------------------------------
# phase-noise models


def test_static_noise_phase_values():
    det0 = toy_detector()
    det90 = DetectorConfig(
        lo_amplitude=1.0,
        lo_phase=math.pi / 2.0,
        reflectivity=0.5,
        tmd_c=det0.tmd_c,
        tmd_d=det0.tmd_d,
    )
    model = PhaseNoiseModel(kind="static_calibration", epsilon=0.1)
    rng = np.random.default_rng(2)
    seen0, seen90 = set(), set()
    for _ in range(10):
        p0 = apply_phase_noise(det0, model, rng).lo_phase
        p90 = apply_phase_noise(det90, model, rng).lo_phase
        seen0.add(round(p0, 12))
        seen90.add(round(p90, 12))
    delta = model.epsilon / 10.0
    allowed0 = {round(delta, 12), round(2.0 * math.pi - delta, 12)}
    allowed90 = {
        round(math.pi / 2.0 * (1.0 + delta), 12),
        round(math.pi / 2.0 * (1.0 - delta), 12),
    }
    assert seen0 <= allowed0 and len(seen0) == 2  # both signs drawn
    assert seen90 <= allowed90 and len(seen90) == 2
    # zero noise passes the configuration through
    calm = PhaseNoiseModel(kind="static_calibration", epsilon=0.0)
    assert apply_phase_noise(det0, calm, rng) is det0


def test_phase_averaged_components():
    det = toy_detector(amplitude=0.8)
    model = PhaseNoiseModel(kind="phase_averaged", width=0.4, samples=40, seed=3)
    comps = apply_phase_noise(det, model)
    assert len(comps) == 40
    weights = np.array([w for w, _ in comps])
    assert np.allclose(weights, 1.0 / 40)
    offsets = np.array([np.angle(a) - det.lo_phase for _, a in comps])
    offsets = (offsets + np.pi) % (2.0 * np.pi) - np.pi
    assert np.all(np.abs(offsets) <= 0.2 + 1e-12)
    assert np.allclose([abs(a) for _, a in comps], 0.8)
    wide = PhaseNoiseModel(
        kind="phase_averaged", width=0.2, samples=400, seed=3, width_is_std=True
    )
    comps = apply_phase_noise(det, wide)
    offsets = np.array([np.angle(a) - det.lo_phase for _, a in comps])
    offsets = (offsets + np.pi) % (2.0 * np.pi) - np.pi
    half = math.sqrt(3.0) * 0.2
    assert np.all(np.abs(offsets) <= half + 1e-12)
    assert np.max(np.abs(offsets)) > 0.5 * half  # spread fills the interval
    calm = PhaseNoiseModel(kind="phase_averaged", width=0.0)
    assert apply_phase_noise(det, calm) is det


def test_noise_trials_deterministic():
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    model = PhaseNoiseModel(kind="static_calibration", epsilon=0.1, seed=5)
    a = noise_trials(st, det, det, model, trials=2)
    b = noise_trials(st, det, det, model, trials=2)
    assert [r.lower_bound for r in a] == [r.lower_bound for r in b]
    assert all(r.info["noise_kind"] == "static_calibration" for r in a)
    assert all("reconciliation" in r.info for r in a)
    other = PhaseNoiseModel(kind="static_calibration", epsilon=0.1, seed=6)
    c = noise_trials(st, det, det, model, trials=2)
    d = noise_trials(st, det, det, other, trials=2)
    assert [r.lower_bound for r in c] != [r.lower_bound for r in d]


# ---------------------------------------------------------------------------
# serialization


def test_bound_result_json_roundtrip():
    rng = np.random.default_rng(13)
    space = HilbertSpec((1, 1))
    ops = random_effects(rng, space, 5)
    st = fock.TruncatedState(space, random_density(rng, 4))
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity_robust(ms, 0.01)
    doc = bound_result_to_json(res)
    back = bound_result_from_json(doc)
    assert back.lower_bound == res.lower_bound
    assert back.solver_status == res.solver_status
    assert back.error_budget == res.error_budget
    assert back.degenerate == res.degenerate
    assert np.allclose(back.witness_H, res.witness_H)
    assert np.allclose(back.multipliers, res.multipliers)
