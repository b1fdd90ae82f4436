"""Smoke tests of the tools: the kernel comparison, on the native kernel
alone, and the solve log, on one n_max=1 bound."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import kernels  # noqa: E402
import solvelog  # noqa: E402


def test_kernels_tool_compares_table_rows(capsys):
    assert kernels.main(["--n-max", "1"], kernels=("native",)) == 0
    out = capsys.readouterr().out.splitlines()
    bounds = [line for line in out if line.startswith("bound ")]
    assert len(bounds) == 4
    for line in bounds:
        _, _, cell, delta = line.split()
        value, status, verified = cell.split("/")
        assert float(value) >= 0.0 and status == "optimal" and verified == "true"
        assert delta == "0"
    assert out[-2] == "largest |dvalue| against native: 0"
    assert out[-1] == "status mismatches: none"
    assert kernels.host_kernels()[0] == "native"


_ONE_BOUND = """
from dataclasses import replace
from entcert import bound, cli

def test_one_bound():
    cfg = replace(cli.ExperimentConfig(), n_max=1)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    fixed, _ = bound.reconcile_expectations(ms)
    assert bound.verify_bound(fixed, bound.lower_bound_negativity(fixed))["verified"]
"""


def test_solvelog_records_and_compares(tmp_path, capsys):
    # a pytest run with the plugin logs the fit's solve, each witness rung
    # and its solve, the kept bound and the verdict; a log compared with
    # itself has no moves, and one changed bound is listed with its |delta|
    (tmp_path / "test_one.py").write_text(_ONE_BOUND)
    log = tmp_path / "solves.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "solvelog",
         f"--solvelog={log}", str(tmp_path / "test_one.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert {r["test"] for r in records} == {"test_one.py::test_one_bound"}
    kinds = [r["kind"] for r in records]
    assert kinds[:2] == ["solve", "reconcile"] and kinds[-2:] == ["bound", "verify"]
    assert kinds.count("solve") == 1 + kinds.count("rung")
    kept = records[-2]
    assert kept["null_cut"] in [r["null_cut"] for r in records if r["kind"] == "rung"]
    for r in records:
        assert r["kind"] == "verify" or (r["status"] and r["iterations"] > 0)
    # the last iterate takes no step, so no solve keeps more correctors
    # than it has iterations less one
    assert all(0 <= r["correctors"] < r["iterations"] for r in records if r["kind"] == "solve")
    assert records[-1]["verified"] and records[-1]["lower_bound"] == kept["lower_bound"]
    value = float.fromhex(kept["lower_bound"])

    assert solvelog.main([str(log), str(log)]) == 0
    out = capsys.readouterr().out
    assert "records that moved: 0" in out
    correctors = sum(r["correctors"] for r in records if r["kind"] == "solve")
    assert f"; correctors {correctors}; statuses" in out
    moved = tmp_path / "moved.jsonl"
    kept["lower_bound"] = (value + 2.0**-20).hex()
    moved.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert solvelog.main([str(log), str(moved)]) == 0
    out = capsys.readouterr().out
    assert f"test_one.py::test_one_bound bound#0: lower_bound {value!r} -> {value + 2.0**-20!r}" in out
    assert "records that moved: 1" in out and "largest |d| bound.lower_bound: 9.54e-07" in out
