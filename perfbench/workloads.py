"""Workloads of the entcert benchmark: seeded inputs, timed ops and gates.

Inputs come from ``numpy.random.default_rng(seed)``, so a fresh seed gives
fresh inputs of the same shape and cost.  ``table`` and ``noise`` run at the
published points for every seed: the solver path is chaotic in the state.
Of 22 table points jittered by +-0.5%, 7 sent the eps=0.1 row's first
null-cut rung to the 200-iteration cap and on to a second rung (~21 s
instead of ~1.3 s), and a jittered noise point (seed 288793572) ended a
static-calibration trial in ``numerical_failure``.  In ``noise`` the seed
draws the LO phase samples; in ``model`` it jitters the squeezing
parameters.  The ops call the library's public API, the functions
``entcert.cli`` calls.

``table``  the error-budget table at the default point: one build, then
           certified bounds at every eps of ``cli.TABLE_EPSILONS``.  The
           robust rows run the solver to its iteration cap, so the stop rule
           and the per-iteration cost show here.
``noise``  phase-averaged trials at the criterion-6 point; each trial is one
           ``bound.noisy_bound``.  Exercises LO-mixture POVMs, the
           equality-constrained reconcile program and normal-length solves.
           Static-calibration trials are left out: one of their 16 sign
           patterns runs to the iteration cap (~19 s against 3-5 s), which
           would make the run time bimodal across seeds.
``model``  solver-free model preparation: a 10-bin TMD build plus exact LN
           at n_max=30, checked against the closed form.

An op is one certified bound (table), one trial (noise) or one model build
(model).  A pass times the whole fixed set of ops; the gates run after it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from entcert import bound, cli, fock, negativity

# relative half-width of the seed jitter around each published parameter
JITTER = 0.005

# Nominal seconds of one unit of work on a 2-vCPU x86 machine: one table,
# one trial, one model op.  They only turn --seconds into an op count; the
# count depends on --seconds alone, never on the speed of the machine, so
# two runs always time the same set of ops.
UNIT_SECONDS = {"table": 45.0, "noise": 4.0, "model": 4.5}

# a certified bound may exceed the exact LN by at most this much
OVERCLAIM_TOL = 1e-9
# exact LN at n_max=30 against the closed form of the squeezed vacuum
MODEL_LN_TOL = 1e-6

NOISE_POINT = {"transmission": 0.9, "apd_efficiency": 0.15}
MODEL_LAMS = (0.1, 0.2, 0.3)


@dataclass
class Op:
    """One timed op and what the gates need to check it."""

    op: int
    label: str
    seconds: float = math.nan
    value: object = None
    exact: object = None
    status: str | None = None
    iterations: int | None = None
    error: str | None = None
    failed: bool = False
    result: object = None
    measurements: object = None

    def fingerprint(self):
        """What tracing must not change: values, solver status, iterations."""
        return (self.label, self.value, self.status, self.iterations, self.error)

    @property
    def gap_pct(self) -> float | None:
        if not isinstance(self.value, float) or not self.exact:
            return None
        return (self.exact - self.value) / self.exact * 100.0

    def record(self) -> dict:
        return {
            "op": self.op,
            "label": self.label,
            "seconds": self.seconds,
            "value": self.value,
            "exact": self.exact,
            "status": self.status,
            "iterations": self.iterations,
            "failed": self.failed,
            "error": self.error,
        }


@dataclass
class Pass:
    wall_s: float
    ops: list


def _jitter(rng, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def units(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def make_inputs(workload: str, seed: int, seconds: float, **size) -> dict:
    """Everything a pass needs before its first timed op.

    ``size`` shrinks an instance for the benchmark's own tests: ``bins``,
    ``n_max``, ``epsilons`` (table) and ``samples`` (noise), ``model_bins``
    and ``model_n_max`` (model).
    """
    rng = np.random.default_rng(seed)
    n_units = units(workload, seconds)
    base = replace(
        cli.ExperimentConfig(),
        bins=size.get("bins", cli.ExperimentConfig.bins),
        n_max=size.get("n_max", cli.ExperimentConfig.n_max),
    )
    if workload == "table":
        _, state, _ = cli.make_states(base)
        exact = negativity.exact_log_negativity(state).log_negativity
        epsilons = size.get("epsilons", cli.TABLE_EPSILONS)
        return {"workload": workload, "points": [(base, state, exact)] * n_units, "epsilons": epsilons}
    if workload == "noise":
        cfg = replace(base, **NOISE_POINT)
        _, state, _ = cli.make_states(cfg)
        exact = negativity.exact_log_negativity(state).log_negativity
        samples = size.get("samples", cfg.noise_samples)
        models = [bound.PhaseNoiseModel("phase_averaged", width=0.4, samples=samples)] * n_units
        return {
            "workload": workload,
            "cfg": cfg,
            "state": state,
            "exact": exact,
            "models": models,
            "noise_seed": int(rng.integers(2**32)),
        }
    if workload == "model":
        cfg = replace(base, bins=size.get("model_bins", 10))
        lam_sets = [tuple(_jitter(rng, lam) for lam in MODEL_LAMS) for _ in range(n_units)]
        return {
            "workload": workload,
            "cfg": cfg,
            "n_max": size.get("model_n_max", 30),
            "lam_sets": lam_sets,
        }
    raise ValueError(f"unknown workload {workload!r}")


@contextmanager
def _witness_inputs(seen: list):
    """Keep the MeasurementSet each witness call receives, for the gate.

    ``noisy_bound`` reconciles the data internally and returns only the
    bound, so the gate takes the reconciled set from the witness call.  This
    is the one patch an untraced pass carries: one Python call per trial.
    """
    names = ("lower_bound_negativity", "lower_bound_negativity_robust")
    saved = {name: getattr(bound, name) for name in names}

    def keep(fn):
        def wrapper(measurements, *args, **kwargs):
            seen.append(measurements)
            return fn(measurements, *args, **kwargs)

        return wrapper

    for name in names:
        setattr(bound, name, keep(saved[name]))
    try:
        yield
    finally:
        for name in names:
            setattr(bound, name, saved[name])


def _timed(op: Op, fn):
    """Run fn, time it, and keep an exception as the op's failure."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an op that raises is counted, never fatal
        op.seconds = time.perf_counter() - t0
        op.error = f"{type(exc).__name__}: {exc}"
        op.failed = True
        return None
    op.seconds = time.perf_counter() - t0
    return out


def _set_bound(op: Op, result):
    if result is not None:
        op.result = result
        op.value = float(result.lower_bound)
        op.status = result.solver_status
        op.iterations = int(result.info["iterations"])


def _table_ops(inputs, span):
    ops = []
    for cfg, state, exact in inputs["points"]:
        with span("prep"):
            det = cli.make_detector(cfg)
            operators = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
            ms = bound.MeasurementSet(operators, bound.simulate_expectations(state, operators))
        for eps in inputs["epsilons"]:
            op = Op(len(ops), f"eps={eps:g}", exact=exact, measurements=ms)
            with span("op", op.op):
                if eps > 0.0:
                    result = _timed(op, lambda: bound.lower_bound_negativity_robust(ms, eps))
                else:
                    result = _timed(op, lambda: bound.lower_bound_negativity(ms))
            _set_bound(op, result)
            ops.append(op)
    return ops


def _noise_ops(inputs, span):
    cfg, state = inputs["cfg"], inputs["state"]
    rng = np.random.default_rng(inputs["noise_seed"])
    with span("prep"):
        det = cli.make_detector(cfg)
        nominal = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ops = []
    for k, model in enumerate(inputs["models"]):
        op = Op(k, model.kind, exact=inputs["exact"])
        seen = []
        with span("op", k), _witness_inputs(seen):
            result = _timed(
                op,
                lambda: bound.noisy_bound(
                    state, det, det, model, phases=cfg.phases, rng=rng, nominal_ops=nominal
                ),
            )
        _set_bound(op, result)
        op.measurements = seen[-1] if seen else None
        ops.append(op)
    return ops


def _model_op(cfg, n_max, lams):
    det = cli.make_detector(cfg)
    operators = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    lns = tuple(
        negativity.exact_log_negativity(
            fock.two_mode_squeezed(fock.SqueezedParams(lam, n_max))
        ).log_negativity
        for lam in lams
    )
    return len(operators), lns


def _model_ops(inputs, span):
    cfg, n_max = inputs["cfg"], inputs["n_max"]
    ops = []
    for k, lams in enumerate(inputs["lam_sets"]):
        op = Op(k, f"bins={cfg.bins} n_max={n_max}")
        op.exact = tuple(negativity.closed_form_squeezed_ln(lam) for lam in lams)
        with span("op", k):
            out = _timed(op, lambda: _model_op(cfg, n_max, lams))
        if out is not None:
            op.result, op.value = out
        ops.append(op)
    return ops


RUNNERS = {"table": _table_ops, "noise": _noise_ops, "model": _model_ops}


def run_pass(inputs: dict, tracer=None) -> Pass:
    """Time the workload's fixed set of ops once; no gate runs inside."""
    span = tracer.span if tracer is not None else (lambda name, op=None: nullcontext())
    t0 = time.perf_counter()
    ops = RUNNERS[inputs["workload"]](inputs, span)
    return Pass(time.perf_counter() - t0, ops)


def gate(inputs: dict, op: Op, tracer=None):
    """Mark op failed unless its result is correct; never raises."""
    if op.failed:
        return
    span = tracer.span("gate", op.op) if tracer is not None else nullcontext()
    with span:
        if inputs["workload"] == "model":
            n_ops, lns = op.result, op.value
            bins = inputs["cfg"].bins
            expected = 1 + (len(bound.DEFAULT_OUTCOMES) * len(inputs["cfg"].phases)) ** 2
            bad = n_ops != expected or any(
                abs(ln - ref) > MODEL_LN_TOL for ln, ref in zip(lns, op.exact)
            )
            if bad:
                op.failed = True
                op.error = f"model check failed: {n_ops} operators for {bins} bins, LN {lns}"
            return
        try:
            check = bound.verify_bound(op.measurements, op.result)
        except Exception as exc:  # a gate that raises fails the op
            op.failed, op.error = True, f"verify_bound: {type(exc).__name__}: {exc}"
            return
        if not (check["feasible"] and check["bound_matches"]):
            op.failed, op.error = True, f"verify_bound rejects the certificate: {check}"
        elif op.value > op.exact + OVERCLAIM_TOL:
            op.failed, op.error = True, f"bound {op.value} exceeds exact LN {op.exact}"
        elif op.status == "numerical_failure":
            op.failed, op.error = True, "solver numerical_failure"
    op.result = op.measurements = None
