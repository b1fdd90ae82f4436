"""Benchmark of the entcert pipeline: workloads, tracer and per-layer metrics.

Run ``python3 perfbench/run.py --workload table --seed 1 --seconds 32 --trace 0``
from the repository root; ``python3 perfbench/baseline.py`` regenerates
``perfbench/BASELINE.json``.
"""
