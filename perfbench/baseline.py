"""Regenerate perfbench/BASELINE.json: every workload, untraced and traced.

    python3 perfbench/baseline.py --seed 1

Runs perfbench/run.py once per workload of BENCHMARK.json with --trace 0 and
once with --trace 1, at the benchmark's run_seconds, one run at a time.  Each
entry keeps the run's result line, its environment and its per-op records
(bound, solver status and iterations of every table row and noise trial).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    lines = subprocess.run(
        cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600
    ).stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return {"workload": workload, "trace": trace, "result": json.loads(lines[-1]), **detail}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            runs.append(run_once(workload["name"], args.seed, bench["run_seconds"], trace))
            print(f"{workload['name']} trace {trace}: {runs[-1]['result']['metrics']}", flush=True)
    doc = {"command": "python3 perfbench/baseline.py --seed %d" % args.seed, "runs": runs}
    (ROOT / "perfbench" / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
