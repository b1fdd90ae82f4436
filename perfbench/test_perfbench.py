"""Tests of the benchmark itself, on tiny instances of each workload.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import argparse
import json

import pytest

from perfbench import run

run.import_package()

from entcert import bound  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

TINY = {
    "table": {"bins": 3, "n_max": 1, "epsilons": (0.0, 0.1)},
    "noise": {"bins": 3, "n_max": 1, "samples": 4},
    "model": {"model_bins": 4, "model_n_max": 16},
}

# every wrapped entry point must fire on each workload whose layer runs it
EXPECTED_SPANS = {
    "table": set(tracing.SPAN_NAMES) - {"bound.noisy_bound", "bound.reconcile_expectations"},
    "noise": set(tracing.SPAN_NAMES) - {"bound.lower_bound_negativity_robust"},
    "model": {
        "fock.two_mode_squeezed",
        "detector.homodyne_povm",
        "detector.click_matrix",
        "detector.convolution_matrix",
        "negativity.exact_log_negativity",
        "bound.build_measurements",
    },
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _args(workload, trace):
    return argparse.Namespace(workload=workload, seed=5, seconds=1.0, trace=trace)


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request):
    workload = request.param
    result, detail, tracer = run.measure(_args(workload, 1), size=TINY[workload])
    return workload, result, detail, tracer


def test_every_entry_point_span_fires(traced):
    workload, _, _, tracer = traced
    fired = {span.name for span in tracer.spans}
    assert EXPECTED_SPANS[workload] <= fired, EXPECTED_SPANS[workload] - fired


def test_self_times_nonnegative_and_sum_to_traced_wall(traced):
    _, _, _, tracer = traced
    spans = tracer.spans
    roots = [span for span in spans if span.parent is None]
    assert [span.name for span in roots] == ["run"]
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(roots[0].seconds, rel=1e-9, abs=1e-9)


def test_trace_does_not_change_results(traced):
    _, result, detail, _ = traced
    assert detail["trace_matches_untraced"]
    assert [op["value"] for op in detail["ops"]] == [op["value"] for op in detail["traced_ops"]]
    failed = sum(op["failed"] for op in detail["ops"] + detail["traced_ops"])
    assert result["failed"] == failed
    assert result["correct"] == (failed == 0)


def test_per_layer_names_and_units_match_benchmark_json(traced):
    _, result, _, _ = traced
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_end_to_end_names_and_units_match_benchmark_json():
    result, detail, tracer = run.measure(_args("model", 0), size=TINY["model"], probes=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert tracer is None and result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["nproc"] >= 1 and detail["env"]["seed"] == 5


def test_failing_op_is_counted_not_fatal(monkeypatch):
    robust = bound.lower_bound_negativity_robust

    def flaky(measurements, epsilon, **kwargs):
        if epsilon == 0.1:
            raise RuntimeError("injected")
        return robust(measurements, epsilon, **kwargs)

    monkeypatch.setattr(bound, "lower_bound_negativity_robust", flaky)
    inputs = workloads.make_inputs("table", 5, 1.0, **TINY["table"])
    done = workloads.run_pass(inputs)
    for op in done.ops:
        workloads.gate(inputs, op)
    assert [op.failed for op in done.ops] == [False, True]
    assert "injected" in done.ops[1].error


def test_gate_rejects_a_broken_certificate():
    inputs = workloads.make_inputs("table", 5, 1.0, bins=3, n_max=2, epsilons=(0.0,))
    op = workloads.run_pass(inputs).ops[0]
    assert op.value > 0.0
    op.result.multipliers = op.result.multipliers * 2.0
    workloads.gate(inputs, op)
    assert op.failed and "verify_bound" in op.error


def test_tracer_restores_and_refuses_rebound_entry_points(monkeypatch):
    before = bound.build_measurements
    with tracing.Tracer():
        assert bound.build_measurements is not before
    assert bound.build_measurements is before
    monkeypatch.setattr(bound, "homodyne_povm", lambda *a, **k: None)
    with pytest.raises(RuntimeError, match="homodyne_povm"):
        tracing.Tracer().__enter__()
    assert bound.build_measurements is before


def test_useful_iterations_stop_at_last_ten_percent_cut():
    scores = [1.0, 0.5, 0.46, 0.2, 0.19, 0.19, 0.185]
    history = [{"rel_gap": s, "res_moment": 0.0, "res_slack": 0.0} for s in scores]
    assert tracing.useful_iterations(history) == 4
