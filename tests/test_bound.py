"""Unit tests for measurement assembly and the witness-SDP bound pipeline."""

import gc
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import weakref
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import kernels  # noqa: E402


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


def test_equal_detectors_share_one_element_list(monkeypatch):
    # two equal detectors build the single-mode elements once: one
    # homodyne_povm per phase, the operators of two separate builds bit for
    # bit
    det = toy_detector()
    phases = (0.0, math.pi / 2.0)
    ops1 = bound._mode_elements(det, phases, 2)
    ops2 = bound._mode_elements(replace(det), phases, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].lo_phase)
        return homodyne_povm(*args, **kwargs)

    monkeypatch.setattr(bound, "homodyne_povm", counting)
    ops = build_measurements(det, replace(det), phases=phases, signal_cutoff=2)
    assert calls == list(phases)
    expected = [np.eye(9)] + [np.kron(a, b) for a in ops1 for b in ops2]
    assert len(ops) == len(expected)
    assert all(np.array_equal(op.matrix, e) for op, e in zip(ops, expected))


def _single_mode(det, phases, cutoff):
    """np.kron's inputs: the DEFAULT_OUTCOMES elements of each phase's POVM."""
    mats = []
    for phase in phases:
        povm = homodyne_povm(replace(det, lo_phase=phase), cutoff)
        by_outcome = {e.outcome: e.operator.matrix for e in povm.elements}
        mats.extend(by_outcome[b] for b in bound.DEFAULT_OUTCOMES)
    return np.array(mats)


def _phase_averaged(det, phases, seed):
    """_single_mode under a 100-sample phase average of full width 0.4 per
    setting."""
    rng = np.random.default_rng(seed)
    offsets = [rng.uniform(-0.2, 0.2, 100) for _ in phases]
    return bound._dephased(_single_mode(det, phases, 3), offsets)


@pytest.mark.parametrize("mixed", [False, True])
def test_build_measurements_bytes_equal_np_kron(mixed):
    # every product operator is np.kron of the single-mode elements, bit for
    # bit: for two equal detectors, and for two modes with their own
    # detectors under 100-sample phase averages
    phases = bound.DEFAULT_PHASES
    det1 = toy_detector(eta=0.9, amplitude=1.0)
    if mixed:
        det2 = DetectorConfig(2.5, 0.0, 0.9, TmdConfig(bins=10, efficiency=0.7))
        a, b = _phase_averaged(det1, phases, 1), _phase_averaged(det2, phases, 2)
        ops = bound._products(a, b)
    else:
        a = b = _single_mode(det1, phases, 3)
        ops = build_measurements(det1, det1, phases, signal_cutoff=3)
    expected = [np.eye(16, dtype=complex)] + [np.kron(x, y) for x in a for y in b]
    assert len(ops) == len(expected) == 65
    for op, e in zip(ops, expected):
        assert op.matrix.dtype == complex and op.matrix.tobytes() == e.tobytes()


def test_build_measurements_views_one_read_only_stack():
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    base = ops[0].matrix.base
    assert base is not None and base.shape == (65, 9, 9) and not base.flags.writeable
    for k, op in enumerate(ops):
        assert op.matrix.base is base and not op.matrix.flags.writeable
        assert np.shares_memory(op.matrix, base[k])
    with pytest.raises(ValueError):
        ops[3].matrix[0, 0] = 0.0


def test_measurement_set_views_the_operator_stack():
    # a set of build_measurements' operators, or of a leading run of them,
    # holds a view of their read-only stack, not a second copy; operators
    # out of order are copied
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    base = ops[0].matrix.base
    data = np.zeros(len(ops))
    data[0] = 1.0
    for count in (len(ops), 10):
        ms = MeasurementSet(ops[:count], data[:count])
        assert ms.matrices.base is base and ms.matrices.shape == (count, 9, 9)
        assert np.shares_memory(ms.matrices, base) and not ms.matrices.flags.writeable
        assert np.array_equal(ms.matrices, base[:count])
    shuffled = [ops[0], ops[2], ops[1]] + ops[3:]
    ms = MeasurementSet(shuffled, data)
    assert not np.shares_memory(ms.matrices, base)
    assert np.array_equal(ms.matrices, base[[0, 2, 1, *range(3, len(ops))]])
    one = MeasurementSet([ops[0], FockOperator(ops[1].space, ops[1].matrix)], data[:2])
    assert not np.shares_memory(one.matrices, base)


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


def test_measurement_set_names_the_first_bad_operator():
    space = HilbertSpec((1, 1))
    eye = FockOperator(space, np.eye(4, dtype=complex))
    half = FockOperator(space, 0.5 * np.eye(4, dtype=complex))
    skew = np.eye(4, dtype=complex) * 0.5
    skew[0, 1] = 0.1
    tilted = FockOperator(space, skew)
    above = FockOperator(space, 2.0 * np.eye(4, dtype=complex))
    below = FockOperator(space, -0.5 * np.eye(4, dtype=complex))
    other = FockOperator(HilbertSpec((1, 2)), 0.5 * np.eye(6, dtype=complex))
    cases = [
        ([eye, tilted, above], "operator 1 not Hermitian"),
        ([eye, above, tilted], "operator 1 outside [0, I]"),
        ([eye, half, below, tilted], "operator 2 outside [0, I]"),
        ([eye, half, half, tilted, above], "operator 3 not Hermitian"),
        ([eye, above, other], "operator 1 outside [0, I]"),
        ([eye, half, other, above], "operators live on different spaces"),
    ]
    for ops, message in cases:
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MeasurementSet(ops, [1.0] + [0.5] * (len(ops) - 1))


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
        rho0, basis = oracles.unit_trace_basis(n)
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
    shifted = bound._mode_elements(det, (0.05, math.pi / 2.0 + 0.05), 2)
    dephased = bound._dephased(bound._mode_elements(det, bound.DEFAULT_PHASES, 2), [[-0.03]] * 2)
    true_ops = bound._products(shifted, dephased)
    data = simulate_expectations(st, true_ops)
    ms = MeasurementSet(nominal, data)
    fixed, info = reconcile_expectations(ms)
    assert info["fit_status"] == "optimal"
    res = lower_bound_negativity(fixed)
    assert np.isfinite(res.lower_bound)
    assert verify_bound(fixed, res)["feasible"]


def test_reconcile_fits_start_inside_at_criterion_6_point():
    # at the criterion-6 point both noise kinds' fits end optimal in at
    # most 20 iterations on seeds 20-25: 16-18 for the fit's dual from the
    # solver's default start with the centrality corrector, 17-21 without
    # it, where the state-coordinate fit took 25-54
    state = table_point_state(0.9, apd=0.15)
    det = DetectorConfig(1.0, 0.0, 0.5, TmdConfig(8, 0.1))
    models = [
        model
        for seed in range(20, 26)
        for model in (
            PhaseNoiseModel("static_calibration", epsilon=0.1, seed=seed),
            PhaseNoiseModel("phase_averaged", width=0.4, seed=seed),
        )
    ]
    for model in models:
        for res in noise_trials(state, det, det, model, trials=3):
            fit = res.info["reconciliation"]
            assert fit["fit_status"] == "optimal"
            assert fit["fit_iterations"] <= 20, fit


class _Signs:
    """Stands in for the trial's random stream: random() gives each static
    draw's sign in turn, + as 0.25 and - as 0.75."""

    def __init__(self, signs):
        self.draws = [0.25 if sign == "+" else 0.75 for sign in signs]

    def random(self):
        return self.draws.pop(0)


def test_static_sign_patterns_end_optimal_on_the_first_rung(monkeypatch):
    # a static draw at the criterion-6 point is one sign per mode and LO
    # setting, 16 patterns in all; each ends optimal on the first null-cut
    # rung, in at most 30 witness iterations, on every OpenBLAS kernel
    # tools/kernels.py runs: 13-22 natively (AVX-512), 13-27 under Haswell
    # (+--+) and 13-25 under Sandybridge
    state = table_point_state(0.9, apd=0.15)
    det = DetectorConfig(1.0, 0.0, 0.5, TmdConfig(8, 0.1))
    model = PhaseNoiseModel("static_calibration", epsilon=0.1)
    nominal = build_measurements(det, det, signal_cutoff=3)
    rungs = []
    witness_rung = bound._witness_rung

    def recorded(*args, **kwargs):
        sol, res = witness_rung(*args, **kwargs)
        rungs.append((args[2], sol.status, sol.iterations))
        return sol, res

    monkeypatch.setattr(bound, "_witness_rung", recorded)
    for signs in ("".join(p) for p in itertools.product("+-", repeat=4)):
        rungs.clear()
        res = bound.noisy_bound(state, det, det, model, rng=_Signs(signs), nominal_ops=nominal)
        assert res.info["verified"]
        assert len(rungs) == 1, (signs, rungs)
        cut, status, iterations = rungs[0]
        assert cut == bound.GRAM_NULL_CUT and status == sdp.STATUS_OPTIMAL, (signs, rungs)
        assert iterations <= 30, (signs, rungs)


def test_reconcile_dual_matches_state_coordinate_fit(monkeypatch):
    # on seeded criterion-6 draws of both noise kinds, the fit's dual ends
    # optimal at the state-coordinate fit's bound t, and its certificate's
    # state is PSD with unit trace and meets every window to feas_tol
    state = table_point_state(0.9, apd=0.15)
    det = DetectorConfig(1.0, 0.0, 0.5, TmdConfig(8, 0.1))
    fits = []
    reconcile, solve = bound.reconcile_expectations, sdp.solve

    def recorded(ms):
        solves = []

        def kept(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdp, "solve", kept)
            out = reconcile(ms)
        fits.append((ms, out[1], solves))
        return out

    monkeypatch.setattr(bound, "reconcile_expectations", recorded)
    models = [
        PhaseNoiseModel("static_calibration", epsilon=0.1, seed=22),
        PhaseNoiseModel("phase_averaged", width=0.4, seed=23),
    ]
    for model in models:
        noise_trials(state, det, det, model, trials=3)
    assert len(fits) == 6
    feas_tol = inspect.signature(sdp.solve).parameters["feas_tol"].default
    for ms, info, (sol,) in fits:
        old, _, t_old = oracles.state_coordinate_fit(ms.matrices, ms.expectations)
        assert old.status == info["fit_status"] == sol.status == "optimal"
        t = sol.dual_certificate[1][0, 0]
        assert info["fit_residual"] == t
        assert abs(t - t_old) <= 1e-8 * (1.0 + t_old), (t, t_old)
        rho = sol.dual_certificate[0]
        assert np.linalg.eigvalsh(rho)[0] >= 0.0
        assert abs(np.trace(rho) - 1.0) <= feas_tol
        weights = bound._fit_windows(ms.matrices)[0]
        dev = weights.T @ (np.real(np.einsum("iab,ba->i", ms.matrices, rho)) - ms.expectations)
        assert np.max(np.abs(dev)) - t <= feas_tol


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
    # a draw is one offset, +-epsilon/10 at theta = 0 and +-theta epsilon/10
    # elsewhere, its sign taken from one random() of the stream per draw
    signs = np.random.default_rng(2)
    allowed0 = {delta: 1.0, -delta: -1.0}
    allowed90 = {math.pi / 2.0 * delta: 1.0, -math.pi / 2.0 * delta: -1.0}
    seen0, seen90 = set(), set()
    for _ in range(10):
        [d0] = apply_phase_noise(det0, model, rng)
        [d90] = apply_phase_noise(det90, model, rng)
        assert d0 in allowed0 and d90 in allowed90
        for allowed, d in ((allowed0, d0), (allowed90, d90)):
            assert allowed[d] == (1.0 if signs.random() < 0.5 else -1.0)
        seen0.add(d0)
        seen90.add(d90)
    assert len(seen0) == 2 and len(seen90) == 2  # both signs drawn
    # zero noise leaves the nominal LO and draws nothing
    calm = PhaseNoiseModel(kind="static_calibration", epsilon=0.0)
    assert apply_phase_noise(det0, calm, None) == [0.0]


def test_phase_averaged_components():
    # a draw is `samples` offsets uniform over the full width, or over
    # +-sqrt(3) width when width is a standard deviation: the stream's next
    # uniform() call
    det = toy_detector(amplitude=0.8)
    model = PhaseNoiseModel(kind="phase_averaged", width=0.4, samples=40, seed=3)
    offsets = apply_phase_noise(det, model, np.random.default_rng(model.seed))
    assert len(offsets) == 40
    assert np.array_equal(offsets, np.random.default_rng(3).uniform(-0.2, 0.2, 40))
    assert np.all(np.abs(offsets) <= 0.2)
    wide = PhaseNoiseModel(
        kind="phase_averaged", width=0.2, samples=400, seed=3, width_is_std=True
    )
    offsets = apply_phase_noise(det, wide, np.random.default_rng(wide.seed))
    half = math.sqrt(3.0) * 0.2
    assert np.array_equal(offsets, np.random.default_rng(3).uniform(-half, half, 400))
    assert np.all(np.abs(offsets) <= half)
    assert np.max(np.abs(offsets)) > 0.5 * half  # spread fills the interval
    calm = PhaseNoiseModel(kind="phase_averaged", width=0.0)
    assert apply_phase_noise(det, calm, None) == [0.0]


@pytest.mark.parametrize("theta", [0.0, math.pi / 2.0, 0.3])
def test_phase_noise_is_one_elementwise_product(theta):
    # reference computed at run time: a 100-sample phase average equals the
    # equal-weight sum of 100 pure-LO POVMs at theta + delta_s, and a static
    # draw equals the pure-LO POVM at the drawn phase
    det = replace(toy_detector(), lo_phase=theta)
    outcomes = list(bound.DEFAULT_OUTCOMES)

    def pure(phase):
        return homodyne_povm(replace(det, lo_phase=phase), 3).matrices[outcomes]

    nominal = bound._mode_elements(det, (theta,), 3)
    averaged = PhaseNoiseModel("phase_averaged", width=0.4, seed=11)
    deltas = apply_phase_noise(det, averaged, np.random.default_rng(averaged.seed))
    assert len(deltas) == 100
    expected = sum(pure(theta + d) for d in deltas) / 100
    assert np.max(np.abs(bound._dephased(nominal, [deltas]) - expected)) <= 1e-14
    static = PhaseNoiseModel("static_calibration", epsilon=0.1)
    for sign in (1.0, -1.0):
        drawn = sign * 0.01 if theta == 0.0 else theta * (1.0 + sign * 0.01)
        offsets = apply_phase_noise(det, static, _Signs("+" if sign > 0 else "-"))
        assert np.max(np.abs(bound._dephased(nominal, [offsets]) - pure(drawn))) <= 1e-14


def test_zero_phase_noise_leaves_every_bit(monkeypatch):
    # a trial without noise simulates its data on the nominal operators
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    nominal = build_measurements(det, det, signal_cutoff=2)
    seen = []
    simulate = bound.simulate_expectations

    def recorded(state, ops):
        seen.append(ops)
        return simulate(state, ops)

    monkeypatch.setattr(bound, "simulate_expectations", recorded)
    calm = [
        PhaseNoiseModel("static_calibration", epsilon=0.0),
        PhaseNoiseModel("phase_averaged", width=0.0),
    ]
    for model in calm:
        bound.noisy_bound(st, det, det, model, rng=None, nominal_ops=nominal)
    assert len(seen) == 2
    for ops in seen:
        assert [op.matrix.tobytes() for op in ops] == [op.matrix.tobytes() for op in nominal]


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


def _stack_keys(stack):
    return [key for key in sdp._PREPARED if key[0] == id(stack)]


def _prepared_key(a):
    """The key of a read-only array's entry in sdp._PREPARED."""
    base = a if a.base is None else a.base
    return (id(base), a.ctypes.data, a.shape, a.strides)


def test_noise_trials_reuse_operator_data_bit_for_bit():
    # the operator checks, the Gram rotation, the witness blocks and the
    # fit's program data are derived once per read-only operator stack,
    # beside the single-mode lists the stack was built from, and the solver
    # prepares the cones of their F arrays once; a trial on a warm entry,
    # and one on copies of the operators that are never cached, give the
    # bits of the trial that filled it
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    nominal = build_measurements(det, det, signal_cutoff=2)
    stack = nominal[0].matrix.base
    copies = [FockOperator(op.space, op.matrix) for op in nominal]
    model = PhaseNoiseModel("phase_averaged", width=0.4, samples=20)
    (key,) = _stack_keys(stack)
    assert [name[0].__name__ for name in sdp._PREPARED[key]] == ["_mode_elements"]
    results = []
    for ops in (nominal, nominal, copies):
        rng = np.random.default_rng(7)
        results.append(bound.noisy_bound(st, det, det, model, rng=rng, nominal_ops=ops))
        if len(results) == 1:
            (key,) = _stack_keys(stack)
            names = {name[0].__name__ for name in sdp._PREPARED[key]}
            assert names == {
                "_mode_elements", "_gram_rotation", "_rotated_operators", "_fit_windows",
                "_operator_checks", "_witness_blocks", "_ball_blocks",
            }
            cached = [a for value in sdp._PREPARED[key].values() for a in value]
            assert not any(a.flags.writeable for a in cached)
    cold = results[0]
    for res in results[1:]:
        assert res.lower_bound == cold.lower_bound
        assert res.solver_status == cold.solver_status
        assert res.info["iterations"] == cold.info["iterations"]
        assert res.info["reconciliation"] == cold.info["reconciliation"]
        assert np.array_equal(res.multipliers, cold.multipliers)
        assert np.array_equal(res.witness_H, cold.witness_H)


def test_operator_data_dies_with_its_stack():
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    fixed, _ = reconcile_expectations(ms)
    lower_bound_negativity(fixed)
    stack = ops[0].matrix.base
    keys = _stack_keys(stack)
    assert len(keys) == 1
    # the solver's prepared cones of block A, of I - H and I + H and of the
    # fit's state block are kept with their F arrays, and go with them
    arrays = [_prepared_key(a) for value in sdp._PREPARED[keys[0]].values() for a in value]
    prepared = [key for key in arrays if "cone" in sdp._PREPARED.get(key, {})]
    assert len(prepared) == 4
    alive = weakref.ref(stack)
    del ops, ms, fixed, stack
    gc.collect()
    assert alive() is None
    assert not any(key in sdp._PREPARED for key in keys)
    assert not any(key in sdp._PREPARED for key in prepared)


def _counted_cone_builds(monkeypatch, dropped):
    """The row count of every F array a _MatrixCone is built from, and
    whether every weak reference in `dropped` was dead by then."""
    builds = []

    class Counted(sdp._MatrixCone):
        def __init__(self, index, f0, fs, dvec=None):
            super().__init__(index, f0, fs, dvec)
            builds.append((len(fs), all(ref() is None for ref in dropped)))

    monkeypatch.setattr(sdp, "_MatrixCone", Counted)
    return builds


def test_witness_cones_are_prepared_once_per_stack(monkeypatch):
    # eight noise trials on one stack prepare the cones of block A, with
    # rows for H and nu, of I - H and I + H, with rows for H alone, and of
    # the fit's state block once.  A change that defeats the reuse, such
    # as a writable block, builds a set per trial
    cfg = replace(cli.ExperimentConfig(), transmission=0.9, apd_efficiency=0.15)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    nominal = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    nh = nominal[0].space.dim ** 2
    fit_rows = 1 + 2 * bound._fit_windows(nominal[0].matrix.base)[0].shape[1]
    model = PhaseNoiseModel("phase_averaged", width=0.4, samples=cfg.noise_samples)
    rng = np.random.default_rng(3)
    dropped = []
    builds = _counted_cone_builds(monkeypatch, dropped)
    for _ in range(8):
        res = bound.noisy_bound(
            state, det, det, model, phases=cfg.phases, rng=rng, nominal_ops=nominal
        )
        assert res.info["null_cut"] == bound.GRAM_NULL_CUT
    rows = [rows for rows, _ in builds]
    assert len([r for r in rows if r > nh]) == 1 and rows.count(nh) == 2
    assert rows.count(fit_rows) == 1 and len(rows) == 4
    # the table's rows prepare no more cone of I -+ H, and its three robust
    # rows solve one block A, set up once, after the exact row's block A,
    # and with it its cone, is dropped
    builds.clear()
    ms = MeasurementSet(nominal, simulate_expectations(state, nominal))
    lower_bound_negativity(ms)
    assert nh not in [rows for rows, _ in builds]
    (key,) = _stack_keys(nominal[0].matrix.base)
    (exact,) = [v for k, v in sdp._PREPARED[key].items() if k[0].__name__ == "_witness_blocks"]
    dropped.extend(weakref.ref(fs) for fs in exact)
    del exact
    builds.clear()
    for eps in cli.TABLE_EPSILONS[1:]:
        lower_bound_negativity_robust(ms, eps)
    assert builds == [(nh + len(nominal), True)]


def test_writable_operator_matrices_are_never_cached():
    # operators that are not rows of one read-only stack are copied into a
    # writable array, and what is derived from it is recomputed each call
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    ops = [FockOperator(op.space, op.matrix) for op in build_measurements(det, det, signal_cutoff=2)]
    ms = MeasurementSet(ops, simulate_expectations(st, ops))
    assert ms.matrices.flags.writeable
    before = set(sdp._PREPARED)
    fixed, _ = reconcile_expectations(ms)
    lower_bound_negativity(fixed)
    assert set(sdp._PREPARED) <= before
    first, second = bound._gram_rotation(ms.matrices), bound._gram_rotation(ms.matrices)
    assert first[0] is not second[0] and np.array_equal(first[0], second[0])
    # a read-only view of a writable array is not cached either
    view = ms.matrices[:]
    view.setflags(write=False)
    bound._gram_rotation(view)
    assert set(sdp._PREPARED) <= before


def test_prepared_entries_are_keyed_on_the_base_and_the_view():
    # the two block views that _ball_blocks returns from one array get an
    # entry each, kept while any of them lives and dropped with that array;
    # a read-only view of a writable array gets a fresh dict, kept nowhere,
    # on every call
    det = toy_detector()
    ops = build_measurements(det, det, signal_cutoff=2)
    stack = ops[0].matrix.base
    views = bound._ball_blocks(stack)
    base = views[0].base
    assert all(view.base is base for view in views)
    before = set(sdp._PREPARED)
    entries = [sdp._prepared(view) for view in views]
    keys = [key for key in sdp._PREPARED if key[0] == id(base)]
    assert len(keys) == 2 and set(keys) == set(sdp._PREPARED) - before
    assert len({id(entry) for entry in entries}) == 2
    assert all(sdp._prepared(view) is entry for view, entry in zip(views, entries))
    assert sdp._prepared(base[1][:]) is entries[1]
    alive = weakref.ref(base)
    del views, base, entries
    gc.collect()
    # the stack's own entry keeps the views
    assert alive() is not None and all(key in sdp._PREPARED for key in keys)
    del ops, stack
    gc.collect()
    assert alive() is None
    assert not any(key in sdp._PREPARED for key in keys)

    writable = np.zeros((2, 3, 3))
    view = writable[:]
    view.setflags(write=False)
    before = set(sdp._PREPARED)
    first = sdp._prepared(view)
    first["kept"] = True
    assert sdp._prepared(view) == {} and sdp._prepared(view) is not first
    assert set(sdp._PREPARED) == before


def test_witness_programs_of_one_stack_share_the_ball_cones():
    # two ladder rungs of the exact program and a robust row place the one
    # F array of I - H and of I + H kept with the stack, and the solver
    # prepares their cones and I - H's pair tables once for all of
    # them; they go with the stack
    cfg = replace(cli.ExperimentConfig(), n_max=2)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = MeasurementSet(ops, simulate_expectations(state, ops))
    nh = ms.space.dim**2
    prepared = []
    for epsilon, cut in ((0.0, bound.GRAM_NULL_CUT), (0.0, 1e-8), (1e-3, None)):
        program = bound._witness_program(ms, epsilon, cut)[0]
        sdp.solve(program, max_iter=2)
        balls = [fs for _, fs in program.blocks[1:3]]
        assert [len(fs) for fs in balls] == [nh, nh]
        cones = [sdp._PREPARED[_prepared_key(fs)]["cone"] for fs in balls]
        prepared.append((balls, cones, cones[0].tables["pp"]))
    first = prepared[0]
    for later in prepared[1:]:
        assert all(a is b for a, b in zip(later[0], first[0]))
        assert all(a is b for a, b in zip(later[1], first[1]))
        assert later[2] is first[2]
    keys = [_prepared_key(fs) for fs in first[0]]
    cone = weakref.ref(first[1][0])
    del ops, ms, program, balls, cones, prepared, first, later
    gc.collect()
    assert cone() is None and not any(key in sdp._PREPARED for key in keys)


def test_build_measurements_runs_on_one_blas_thread(monkeypatch):
    # the beam-splitter eigh calls of a fresh model build stall at two
    # OpenBLAS threads; the build runs at one and gives the bits of a build
    # at the caller's count, which it restores
    if sdp._OPENBLAS is None:
        pytest.skip("numpy bundles no OpenBLAS")
    ((get, put),) = sdp._THREAD_CONTROLS
    det = cli.make_detector(cli.ExperimentConfig())
    mode_elements = bound._mode_elements
    inside = []

    def recorded(*args):
        inside.append(get())
        return mode_elements(*args)

    saved = get()
    try:
        put(2)
        detector._bs_columns.cache_clear()
        a = mode_elements(det, bound.DEFAULT_PHASES, 3)
        ref = bound._products(a, a)[0].matrix.base
        detector._bs_columns.cache_clear()
        monkeypatch.setattr(bound, "_mode_elements", recorded)
        ops = build_measurements(det, det, signal_cutoff=3)
        assert inside == [1] and get() == 2
    finally:
        put(saved)
    assert ops[0].matrix.base.tobytes() == ref.tobytes()


def test_noise_trials_reuse_the_single_mode_lists(monkeypatch):
    # build_measurements keeps its single-mode lists with the stack, so a
    # 3-trial run calls homodyne_povm for the two phases of its build
    # alone; copies of the operators are no stack, and each trial builds
    # the lists again, with the same bits
    st = table_point_state(0.9, n_max=2)
    det = toy_detector()
    model = PhaseNoiseModel("phase_averaged", width=0.4, samples=20, seed=4)
    calls = []
    povm = bound.homodyne_povm

    def counted(*args, **kwargs):
        calls.append(args)
        return povm(*args, **kwargs)

    monkeypatch.setattr(bound, "homodyne_povm", counted)
    kept = noise_trials(st, det, det, model, trials=3)
    assert len(calls) == 2
    ops = build_measurements(det, det, signal_cutoff=2)
    copies = [FockOperator(op.space, op.matrix) for op in ops]
    calls.clear()
    rng = np.random.default_rng(model.seed)
    fresh = [bound.noisy_bound(st, det, det, model, rng=rng, nominal_ops=copies) for _ in range(3)]
    assert len(calls) == 6
    for res, ref in zip(kept, fresh):
        assert res.lower_bound == ref.lower_bound and res.solver_status == ref.solver_status
        assert res.info["reconciliation"] == ref.info["reconciliation"]
        assert res.multipliers.tobytes() == ref.multipliers.tobytes()
        assert res.witness_H.tobytes() == ref.witness_H.tobytes()


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


_x86_with_avx2 = kernels.x86_with_avx2


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


def test_bound_reports_its_error_budget():
    # the first-order error budget of the kept (H, nu), against a numpy
    # recomputation from the multipliers, the data and the operators'
    # spectral norms; at the table point's exact row the bound is gone
    # under 1.4e-12 of absolute error per datum
    cfg = cli.ExperimentConfig()
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = MeasurementSet(ops, simulate_expectations(state, ops))
    norms = np.linalg.norm(ms.matrices, ord=2, axis=(1, 2))
    for eps in (0.0, 1e-2):
        res = lower_bound_negativity_robust(ms, eps)
        weights = np.abs(res.multipliers)
        data = np.sum(weights[np.arange(len(ms)) != ms.identity_index])
        info = res.info
        assert info["data_sensitivity"] == pytest.approx(data, rel=1e-12)
        assert info["model_sensitivity"] == pytest.approx(weights @ norms, rel=1e-9)
        assert info["rounding_charge"] == pytest.approx(
            2.0**-53 * weights @ ms.expectations, rel=1e-12
        )
        excess = res.linear_objective - 1.0
        assert excess > 0.0
        assert info["zeroing_datum_error"] == pytest.approx(excess / data, rel=1e-12)
        doc = bound_result_to_json(res)["info"]
        for key in ("data_sensitivity", "model_sensitivity", "rounding_charge"):
            assert doc[key] == info[key]
    exact = lower_bound_negativity(ms).info
    assert exact["data_sensitivity"] == pytest.approx(4.6e11, rel=0.05)
    assert exact["zeroing_datum_error"] == pytest.approx(1.4e-12, rel=0.05)


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
