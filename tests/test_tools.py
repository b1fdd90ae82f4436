"""Smoke test of the kernel comparison tool, on the native kernel alone."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import kernels  # noqa: E402


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
