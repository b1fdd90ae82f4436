"""entcert benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload table --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, timed with tracing off.  With
``--trace 1`` the run makes an untraced pass and then a traced pass over
the same inputs, checks that both give the same bounds, solver statuses and
iteration counts, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The line before the result, ``detail {...}``, records
the environment and every op.  BLAS keeps its default thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("table", "noise", "model")
# set-up is timed this many times per run and reported as the median
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put src/ first on the path and check entcert really comes from it."""
    if not (SRC / "entcert" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'entcert'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import entcert

    if Path(entcert.__file__).resolve().parent != SRC / "entcert":
        raise SystemExit(f"error: entcert imported from {entcert.__file__}, not {SRC}")


def setup_seconds(args, probes: int = SETUP_PROBES) -> float:
    """Median wall time of fresh interpreters that import entcert and make
    the workload's inputs, up to the first timed op."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if found."""
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    return None


def _blas(module) -> dict:
    try:
        cfg = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        cfg = {}
    return {
        "name": cfg.get("name"),
        "version": cfg.get("version"),
        "threads": _blas_threads(module),
    }


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain, setup_s: float) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(plain.wall_s, "s"),
        "op_s_p50": _metric(statistics.median(op.seconds for op in plain.ops), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, plain, traced) -> dict:
    from perfbench import tracing

    metrics = tracing.layer_metrics(spans)
    gaps = [op.gap_pct for op in traced.ops if op.gap_pct is not None]
    metrics["bound.gap_pct"] = _metric(statistics.median(gaps) if gaps else 0.0, "%")
    metrics["trace.overhead_s"] = _metric(traced.wall_s - plain.wall_s, "s")
    return metrics


def measure(args, size=None, probes: int = SETUP_PROBES):
    """Run one workload; return (result, detail, tracer or None)."""
    from perfbench import tracing, workloads

    size = size or {}
    setup_s = setup_seconds(args, probes) if not args.trace else None
    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds, **size)
    plain = workloads.run_pass(inputs)
    for op in plain.ops:
        workloads.gate(inputs, op)
    ops = list(plain.ops)
    detail = {"env": environment(args), "ops": [op.record() for op in plain.ops]}
    correct = True
    tracer = None
    if args.trace:
        with tracing.Tracer() as tracer, tracer.span("run"):
            with tracer.span("setup"):
                traced_inputs = workloads.make_inputs(args.workload, args.seed, args.seconds, **size)
            traced = workloads.run_pass(traced_inputs, tracer)
            for op in traced.ops:
                workloads.gate(traced_inputs, op, tracer)
        ops += traced.ops
        same = [a.fingerprint() for a in plain.ops] == [b.fingerprint() for b in traced.ops]
        correct = same
        detail["traced_ops"] = [op.record() for op in traced.ops]
        detail["trace_matches_untraced"] = same
        metrics = per_layer(tracer.spans, plain, traced)
    else:
        metrics = end_to_end(plain, setup_s)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.setup_only:
        from perfbench import workloads

        workloads.make_inputs(args.workload, args.seed, args.seconds)
        return 0
    result, detail, tracer = measure(args)
    if tracer is not None:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for op in detail.get("traced_ops", detail["ops"]):
        state = f"FAILED {op['error']}" if op["failed"] else "ok"
        print(
            f"op {op['op']:>3} {op['label']:<20} {op['seconds']:9.4f} s  value {op['value']}"
            f"  exact {op['exact']}  {op['status']} {op['iterations']} iters  {state}"
        )
    n_ops = len(detail["ops"])
    for name, m in result["metrics"].items():
        note = f"  (n={n_ops} ops)" if name == "op_s_p50" else ""
        print(f"{name:<38} {m['value']:>16.6g} {m['unit']}{note}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
