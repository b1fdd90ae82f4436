"""Unit tests for measurement assembly and the witness-SDP bound pipeline."""

import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entcert import bound, cli, detector, fock, sdp
from entcert.bound import (
    BoundResult,
    MeasurementSet,
    PhaseNoiseModel,
    apply_phase_noise,
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
    return DetectorConfig(lo_amplitude=amplitude, lo_phase=0.0, reflectivity=0.5, tmd=tmd)


def table_point_state(transmission, n_max=3, lam=0.2, apd=0.2):
    tmsv = fock.two_mode_squeezed(SqueezedParams(lam, n_max))
    st, _ = fock.photon_subtracted_conditional(
        tmsv, SubtractionParams(transmission=transmission, apd_efficiency=apd)
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
                tmd=det.tmd,
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
    # a 2-bin detector has no outcome 3 among DEFAULT_OUTCOMES
    tmd = TmdConfig(bins=2, efficiency=0.1)
    det = DetectorConfig(lo_amplitude=1.0, lo_phase=0.0, reflectivity=0.5, tmd=tmd)
    with pytest.raises(ValueError, match="outcome 3"):
        build_measurements(det, det, signal_cutoff=2)


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
        MeasurementSet([eye, half], [1.0, float("nan")])  # NaN datum
    with pytest.raises(ValueError):
        MeasurementSet([eye, half], [0.7, 0.5])  # identity expectation not 1
    with pytest.raises(ValueError):
        MeasurementSet(
            [eye, FockOperator(space, 2.0 * np.eye(4, dtype=complex))], [1.0, 0.5]
        )  # operator above I
    ms = MeasurementSet([half, eye], [0.5, 1.0])
    assert ms.identity_index == 1


def test_simulate_expectations_accepts_list():
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    vals = simulate_expectations(st, ops)
    assert vals[0] == 1.0
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
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
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            lower_bound_negativity_robust(ms, bad)


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
    # verify_bound and the bound charge the same objective, bit for bit
    assert chk["linear_objective"] == res.linear_objective


def _table_point_measurements():
    ops = build_measurements(toy_detector(), toy_detector(), signal_cutoff=3)
    st = table_point_state(0.95)
    return st, ops, MeasurementSet(ops, simulate_expectations(st, ops))


def _recorded_solves(monkeypatch):
    """Every sdp.solve call from here on, as (program, solution) pairs."""
    solves = []
    original = sdp.solve

    def recording(program, *args, **kwargs):
        solves.append((program, original(program, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(sdp, "solve", recording)
    return solves


def test_robust_table_rows_solve_once_optimal(monkeypatch):
    # a robust program takes its multipliers in the data's own coordinates,
    # where the box charge lives: no Gram rotation, no null cut, one solve,
    # and at the table point each row converges with no ridge retry
    _, _, ms = _table_point_measurements()
    solves = _recorded_solves(monkeypatch)
    for eps in (1e-3, 1e-2, 0.1):
        res = bound.lower_bound_negativity_robust(ms, eps)
        ((program, sol),) = solves
        solves.clear()
        assert program.n_vars == ms.space.dim**2 + len(ms) + bound._boxed(ms).size
        assert sol.status == res.solver_status == sdp.STATUS_OPTIMAL
        assert sol.info["ridge_retries"] == 0
        assert sol.info["detail"] == ""
        assert sol.info["history"][-1]["rel_gap"] < bound._WITNESS_GAP_TOL
        assert "null_cut" not in res.info
        violation = max(0.0, sol.objective_value - sol.info["dual_objective"])
        assert res.info["weak_duality_violation"] == sol.info["weak_duality_violation"] == violation


def _replayed_stop(history, gap_tol=1e-7, feas_tol=1e-8):
    """Iteration and status at which the stop rule of sdp.solve ends a
    solve, replayed from its history: before the gap converges, progress
    is a 0.1% drop of the worst of gap and residuals below its best; after
    that, of the worst residual below its best since convergence."""
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


def test_stall_rule_replays_from_history():
    # after the gap converges, the gap keeps shrinking ~10% per iteration
    # while the moment residual stays parked; the solve stops on the
    # residuals alone, where a gauge that counted the gap would run on.  In
    # the data's own coordinates at n_max = 2, eps = 1e-6 (below
    # DATA_COORDINATES_MIN_EPSILON, for this reason) is too small a charge
    # to resolve the near-null operator combinations, and the solve stalls
    # (53 iterations on an AVX-512 machine) where eps = 1e-3 converges
    cfg = replace(cli.ExperimentConfig(), n_max=2)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = MeasurementSet(ops, simulate_expectations(state, ops))
    solutions = [
        sdp.solve(bound._witness_program(ms, eps, None)[0], gap_tol=bound._WITNESS_GAP_TOL)
        for eps in (1e-6, 1e-3)
    ]
    assert [sol.status for sol in solutions] == [sdp.STATUS_STALLED, sdp.STATUS_OPTIMAL]
    for sol in solutions:
        history = sol.info["history"]
        assert len(history) == sol.iterations < 200
        assert _replayed_stop(history) == (sol.iterations, sol.status)
        assert bool(sol.info["detail"]) == (sol.status == sdp.STATUS_STALLED)
        if sol.status == sdp.STATUS_STALLED:
            window = [rec["rel_gap"] for rec in history[-sdp._STALL_WINDOW - 1 :]]
            assert window[-1] < (1.0 - sdp._STALL_GAIN) * min(window[:-1])


def test_weak_duality_violation_reported_at_cli_table_point(monkeypatch):
    # at the CLI's default point the eps=1e-3 row is one solve; the reported
    # violation is max(0, primal - dual) of the returned iterate, with the
    # dual objective recomputed from the returned certificate (a positive
    # violation is pinned exactly by
    # tests/test_sdp.py::test_weak_duality_violation_first_iterate)
    cfg = cli.ExperimentConfig()
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = MeasurementSet(ops, simulate_expectations(state, ops))
    solves = _recorded_solves(monkeypatch)
    res = bound.lower_bound_negativity_robust(ms, 1e-3)
    assert res.solver_status in (sdp.STATUS_STALLED, sdp.STATUS_OPTIMAL)
    violation = res.info["weak_duality_violation"]
    assert violation < 5e-4
    ((program, sol),) = solves
    report = sdp.verify_solution(program, sol)
    expected = max(0.0, report["primal_objective"] - report["dual_objective"])
    assert violation == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _criterion_8_first_measurements():
    """The full measurement set of the first configuration drawn by
    tests/test_acceptance.py::test_criterion_8_soundness_suite: n_max = 1,
    a random state and 65 click moments at two LO phases."""
    rng = np.random.default_rng(88)
    state = fock.TruncatedState(HilbertSpec((1, 1)), random_density(rng, 4))
    alpha, refl, eta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.9), rng.uniform(0.05, 0.3)
    phases = (0.0, rng.uniform(0.8, 2.3))
    tmd = TmdConfig(8, eta)
    det = DetectorConfig(alpha, 0.0, refl, tmd)
    ops = build_measurements(det, det, phases=phases, signal_cutoff=1)
    return MeasurementSet(ops, simulate_expectations(state, ops))


def test_witness_directions_capped_at_operator_dimension(monkeypatch):
    # the 65 operators span the 16 real dimensions of 4 x 4 Hermitian
    # matrices, yet the relative null cut alone keeps a 17th Gram direction
    # of norm ~5e-10; that one is roundoff, block A's columns are dependent
    # along it, and the objective's slope there is roundoff as well, so the
    # first rung used to end infeasible ("objective diverges").  With 16
    # directions the first rung is optimal and the ladder keeps it.
    ms = _criterion_8_first_measurements()
    _, sig = bound._gram_rotation(ms.matrices)
    assert np.count_nonzero(sig > bound.GRAM_NULL_CUT * sig.max()) == 17
    _, _, _, rot = bound._witness_program(ms, 0.0, bound.GRAM_NULL_CUT)
    assert rot.shape[1] == 16
    statuses = []
    original = sdp.solve

    def recording(*args, **kwargs):
        sol = original(*args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sdp, "solve", recording)
    res = lower_bound_negativity(ms)
    assert statuses == [sdp.STATUS_OPTIMAL]
    assert res.info["null_cut"] == bound.GRAM_NULL_CUT
    check = verify_bound(ms, res)
    assert check["feasible"] and check["bound_matches"]
    assert res.lower_bound == pytest.approx(0.0621998545, abs=1e-8)


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


def test_unit_trace_basis():
    for n in (2, 4, 16):
        rho0, basis = bound._unit_trace_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        assert np.allclose(rho0, rho0.conj().T) and abs(np.trace(rho0) - 1.0) < 1e-15
        assert np.max(np.abs(basis - np.swapaxes(basis, 1, 2).conj())) == 0.0
        assert np.max(np.abs(np.einsum("kaa->k", basis))) < 1e-15
        flat = np.concatenate([basis.real, basis.imag], axis=1).reshape(n * n - 1, -1)
        assert np.linalg.matrix_rank(flat) == n * n - 1


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
        lo_components2=[
            [(1.0, replace(det, lo_phase=p).lo_alpha)] for p in (-0.03, math.pi / 2.0 - 0.03)
        ],
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
        tmd=det0.tmd,
    )
    model = PhaseNoiseModel(kind="static_calibration", epsilon=0.1)
    rng = np.random.default_rng(2)
    delta = model.epsilon / 10.0
    # a draw is one component at the perturbed phase, its amplitude taken
    # from the perturbed DetectorConfig bit for bit (phase wrapped mod 2 pi)
    allowed0 = {replace(det0, lo_phase=t).lo_alpha: t for t in (delta, -delta)}
    allowed90 = {
        replace(det90, lo_phase=t).lo_alpha: t
        for t in (math.pi / 2.0 * (1.0 + delta), math.pi / 2.0 * (1.0 - delta))
    }
    seen0, seen90 = set(), set()
    for _ in range(10):
        [(w0, a0)] = apply_phase_noise(det0, model, rng)
        [(w90, a90)] = apply_phase_noise(det90, model, rng)
        assert w0 == w90 == 1.0
        assert a0 in allowed0 and a90 in allowed90
        seen0.add(allowed0[a0])
        seen90.add(allowed90[a90])
    assert len(seen0) == 2 and len(seen90) == 2  # both signs drawn
    # zero noise leaves the nominal LO
    calm = PhaseNoiseModel(kind="static_calibration", epsilon=0.0)
    assert apply_phase_noise(det0, calm, rng) == [(1.0, det0.lo_alpha)]


def test_phase_averaged_components():
    det = toy_detector(amplitude=0.8)
    model = PhaseNoiseModel(kind="phase_averaged", width=0.4, samples=40, seed=3)
    comps = apply_phase_noise(det, model, np.random.default_rng(model.seed))
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
    comps = apply_phase_noise(det, wide, np.random.default_rng(wide.seed))
    offsets = np.array([np.angle(a) - det.lo_phase for _, a in comps])
    offsets = (offsets + np.pi) % (2.0 * np.pi) - np.pi
    half = math.sqrt(3.0) * 0.2
    assert np.all(np.abs(offsets) <= half + 1e-12)
    assert np.max(np.abs(offsets)) > 0.5 * half  # spread fills the interval
    calm = PhaseNoiseModel(kind="phase_averaged", width=0.0)
    comps = apply_phase_noise(det, calm, np.random.default_rng(calm.seed))
    assert comps == [(1.0, det.lo_alpha)]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_phase_noise_width_must_be_finite(bad):
    with pytest.raises(ValueError, match="width must be finite"):
        PhaseNoiseModel(kind="phase_averaged", width=bad)


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


def test_noise_trials_need_at_least_one_trial():
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    model = PhaseNoiseModel(kind="phase_averaged", width=0.4, seed=1)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            noise_trials(st, det, det, model, trials=trials)


# one static trial of test_noise_trials_deterministic's other model: the
# reconcile fit's moments and the certificate after each solve round
# differently at one and two BLAS threads unless they are pinned to one
_THREAD_TRIAL = """
from entcert import bound, detector, fock
tmsv = fock.two_mode_squeezed(fock.SqueezedParams(0.2, 2))
st, _ = fock.photon_subtracted_conditional(tmsv, fock.SubtractionParams(0.9, 0.2))
tmd = detector.TmdConfig(bins=8, efficiency=0.1)
det = detector.DetectorConfig(1.0, 0.0, 0.5, tmd)
model = bound.PhaseNoiseModel("static_calibration", 0.1, seed=6)
(res,) = bound.noise_trials(st, det, det, model, trials=1)
print(res.lower_bound.hex(), res.multipliers.tobytes().hex(), res.witness_H.tobytes().hex())
"""


def test_noise_trial_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_TRIAL], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# the table's three robust rows, each as its bound in hex and its status
_ROBUST_ROWS = """
from entcert import bound, cli
cfg = cli.ExperimentConfig()
_, state, _ = cli.make_states(cfg)
det = cli.make_detector(cfg)
ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
for eps in cli.TABLE_EPSILONS[1:]:
    res = bound.lower_bound_negativity_robust(ms, eps)
    print(res.lower_bound.hex(), res.solver_status)
"""


def _x86_with_avx2() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return re.search(r"^flags\s*:.*\bavx2\b", cpuinfo, re.MULTILINE) is not None


@pytest.mark.skipif(not _x86_with_avx2(), reason="needs an x86-64 host with AVX2")
def test_robust_rows_same_on_every_openblas_kernel():
    # kernels for different instruction sets round the Schur products
    # differently; in the data's own coordinates the robust rows converge
    # far enough from the roundoff floor that the kernel moves no bound by
    # more than 1e-9 and no status
    src = str(Path(__file__).resolve().parents[1] / "src")
    rows = {}
    for kernel in ("native", "Haswell", "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel != "native":
            env["OPENBLAS_CORETYPE"] = kernel
        run = subprocess.run(
            [sys.executable, "-c", _ROBUST_ROWS], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        rows[kernel] = [line.split() for line in run.stdout.splitlines()]
    native = rows.pop("native")
    assert len(native) == 3
    for kernel, got in rows.items():
        assert len(got) == 3, kernel
        for (b0, s0), (b1, s1) in zip(native, got):
            assert s0 == s1 == sdp.STATUS_OPTIMAL, kernel
            assert abs(float.fromhex(b0) - float.fromhex(b1)) <= 1e-9, kernel


# ---------------------------------------------------------------------------
# serialization


def test_bound_result_json_roundtrip():
    rng = np.random.default_rng(13)
    space = HilbertSpec((1, 1))
    ops = random_effects(rng, space, 5)
    st = fock.TruncatedState(space, random_density(rng, 4))
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    res = lower_bound_negativity_robust(ms, 0.01)
    doc = json.loads(json.dumps(bound_result_to_json(res)))
    assert doc["lower_bound"] == res.lower_bound
    assert doc["solver_status"] == res.solver_status
    assert doc["error_budget"] == res.error_budget
    assert doc["degenerate"] == res.degenerate
    assert doc["linear_objective"] == res.linear_objective
    h = np.array(doc["witness_H_re"]) + 1j * np.array(doc["witness_H_im"])
    assert np.array_equal(h, res.witness_H)
    assert np.array_equal(np.array(doc["multipliers"]), res.multipliers)
    assert doc["info"]["iterations"] == res.info["iterations"]
