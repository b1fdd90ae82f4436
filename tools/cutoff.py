"""Certify the table point's exact bound at several photon-number cutoffs.

    python3 tools/cutoff.py [N_MAX ...]        (default: 3 4 5)

Run from anywhere in a checkout; the package is imported from ``src/``.
Each n_max runs in a fresh process, so each peak RSS is that cutoff's own.
The child builds the table point's state and detector model (the defaults
of ``entcert table``) at that cutoff, simulates their data and certifies
``lower_bound_negativity`` (epsilon = 0) from them.  It prints one line
per cutoff: the bound, solver status and iterations, the state's exact LN,
the bound's error against it, the seconds of the bound and the child's
peak RSS.  Then it prints the same figures as the cutoff table of
ROADMAP.md and the figures of the README's "Practical n_max limit".  The
memory grows like (n_max + 1)^8: about 0.3 GB at 5 and over 1 GB at 6.
The exit code is 1 when a child fails, and 0 otherwise.
"""

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def certify(n_max: int) -> dict:
    """The table point's epsilon = 0 bound at n_max, in this process."""
    from entcert import bound, cli, negativity

    cfg = replace(cli.ExperimentConfig(), n_max=n_max)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    t0 = time.perf_counter()
    result = bound.lower_bound_negativity(ms)
    seconds = time.perf_counter() - t0
    exact = negativity.exact_log_negativity(state).log_negativity
    # ru_maxrss is in kB on Linux and in bytes on macOS
    unit = 2**20 if sys.platform == "darwin" else 2**10
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    return {
        "n_max": n_max,
        "bound": result.lower_bound,
        "status": result.solver_status,
        "iterations": result.info["iterations"],
        "exact": exact,
        "error_pct": (exact - result.lower_bound) / exact * 100.0,
        "seconds": seconds,
        "peak_mb": peak,
    }


def run_child(n_max: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(n_max)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] == ["--child"]:
        print(json.dumps(certify(int(args[1]))))
        return 0
    rows = []
    for n_max in [int(a) for a in args] or [3, 4, 5]:
        try:
            row = run_child(n_max)
        except subprocess.CalledProcessError as err:
            print(f"n_max {n_max}: child exited with {err.returncode}\n{err.stderr}")
            return 1
        rows.append(row)
        print(
            f"n_max {n_max}: bound {row['bound']:.7f} {row['status']} in "
            f"{row['iterations']} iterations; exact LN {row['exact']:.7f}; "
            f"error {row['error_pct']:.2f} %; {row['seconds']:.2f} s; "
            f"peak RSS {row['peak_mb']:.0f} MB"
        )

    def line(name, cells):
        return f"| {name} | " + " | ".join(cells) + " |"

    def status(r):
        return "" if r["status"] == "optimal" else f" (`{r['status']}`)"

    print()
    print(line("n_max", [str(r["n_max"]) for r in rows]))
    print(line("---", ["---"] * len(rows)))
    print(line("exact LN", [f"{r['exact']:.7f}" for r in rows]))
    print(line("bound", [f"{r['bound']:.7f}{status(r)}" for r in rows]))
    print(line("iterations", [str(r["iterations"]) for r in rows]))
    print(line("error", [f"{r['error_pct']:.2f} %" for r in rows]))
    print(line("time, peak RSS", [f"{r['seconds']:.2f} s, {r['peak_mb']:.0f} MB" for r in rows]))
    print()
    print("peak RSS / time of the bound: " + ", ".join(
        f"{r['peak_mb']:.0f} MB / {r['seconds']:.2f} s at n_max = {r['n_max']}" for r in rows
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
