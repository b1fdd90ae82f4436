"""In-memory span tracer for entcert, installed from outside the package.

The tracer replaces each public entry point at the module attribute its
callers look it up by: ``bound`` calls the ``homodyne_povm`` it imported
from ``detector``, so that function is wrapped as ``bound.homodyne_povm``,
while ``detector.homodyne_povm`` calls ``click_matrix`` through its own
module.  Each span records its name, start, end, parent and op id; spans
stay in a list until the run ends.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module the callers look the function up in, attribute, defining module)
ENTRY_POINTS = (
    ("fock", "two_mode_squeezed", "fock"),
    ("fock", "photon_subtracted_conditional", "fock"),
    ("bound", "homodyne_povm", "detector"),
    ("detector", "click_matrix", "detector"),
    ("detector", "convolution_matrix", "detector"),
    ("negativity", "exact_log_negativity", "negativity"),
    ("sdp", "solve", "sdp"),
    ("bound", "build_measurements", "bound"),
    ("bound", "simulate_expectations", "bound"),
    ("bound", "lower_bound_negativity", "bound"),
    ("bound", "lower_bound_negativity_robust", "bound"),
    ("bound", "reconcile_expectations", "bound"),
    ("bound", "verify_bound", "bound"),
    ("bound", "noisy_bound", "bound"),
)
SPAN_NAMES = tuple(f"{home}.{attr}" for _, attr, home in ENTRY_POINTS)

FOCK = ("fock.two_mode_squeezed", "fock.photon_subtracted_conditional")
WITNESS = ("bound.lower_bound_negativity", "bound.lower_bound_negativity_robust")
RECONCILE = ("bound.reconcile_expectations",)
SOLVE = ("sdp.solve",)

# an iteration is useful when it cuts the best max(rel_gap, res_moment,
# res_slack) seen so far by at least this fraction
USEFUL_CUT = 0.1


def useful_iterations(history) -> int:
    """Iterations up to the last one that cut the worst residual by >= 10%."""
    best = math.inf
    last = 0
    for k, entry in enumerate(history, start=1):
        score = max(entry["rel_gap"], entry["res_moment"], entry["res_slack"])
        if score <= (1.0 - USEFUL_CUT) * best:
            last = k
        best = min(best, score)
    return last


def _povm_attrs(arguments, result):
    comps = arguments.get("lo_components")
    return {"lo_components": 1 if comps is None else len(comps)}


def _click_attrs(arguments, result):
    return {"key": repr((arguments["config"], arguments["cutoff"]))}


def _negativity_attrs(arguments, result):
    return {"dim": arguments["state"].space.dim}


def _solve_attrs(arguments, result):
    program = arguments["program"]
    return {
        "status": result.status,
        "iterations": result.iterations,
        "useful_iterations": min(result.iterations, useful_iterations(result.info["history"])),
        "n_vars": program.n_vars,
        "block_dim": max(program.block_sizes),
    }


def _witness_attrs(arguments, result):
    return {
        "nu_l1": float(sum(abs(x) for x in result.multipliers)),
        "psd_shift": abs(float(result.info.get("psd_shift", 0.0))),
    }


ANNOTATE = {
    "detector.homodyne_povm": _povm_attrs,
    "detector.click_matrix": _click_attrs,
    "negativity.exact_log_negativity": _negativity_attrs,
    "sdp.solve": _solve_attrs,
    "bound.lower_bound_negativity": _witness_attrs,
    "bound.lower_bound_negativity_robust": _witness_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed as a context manager.

    Entering the tracer wraps every entry point in ENTRY_POINTS and leaving
    it restores the originals.  Installation refuses an attribute that is
    missing or no longer names the function of the defining module, so a
    rename or rebinding fails loudly instead of silently zeroing a layer.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    def __enter__(self):
        try:
            for where, attr, home in ENTRY_POINTS:
                module = importlib.import_module(f"entcert.{where}")
                original = getattr(module, attr)
                expected = getattr(importlib.import_module(f"entcert.{home}"), attr)
                if original is not expected or original.__module__ != f"entcert.{home}":
                    raise RuntimeError(f"entcert.{where}.{attr} is not entcert.{home}.{attr}")
                setattr(module, attr, self._wrap(original, f"{home}.{attr}"))
                self._restore.append((module, attr, original))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _open(self, name: str, op: int | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self._op if op is None else op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A span of the benchmark's own; ``op`` tags every span opened inside."""
        outer = self._op
        span = self._open(name, op)
        self._op = span.op
        try:
            yield span
        finally:
            self._close(span)
            self._op = outer

    def _wrap(self, fn, name: str):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs.update(annotate(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def dump(self, path):
        """Write the spans, one JSON object per line, with their self times."""
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                doc = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "self": own,
                    "attrs": span.attrs,
                }
                fh.write(json.dumps(doc) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its children.

    Spans come from one thread and nest properly, so children of one parent
    never overlap and their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, covered)]


# per-layer metric name -> unit
LAYER_UNITS = {
    "fock.state_s": "s",
    "fock.state_calls": "count",
    "detector.homodyne_povm_s": "s",
    "detector.homodyne_povm_calls": "count",
    "detector.lo_components": "count",
    "detector.click_matrix_s": "s",
    "detector.convolution_matrix_s": "s",
    "detector.click_matrix_calls": "count",
    "detector.click_matrix_distinct_frac": "ratio",
    "negativity.exact_ln_s": "s",
    "negativity.exact_ln_calls": "count",
    "negativity.dim_max": "count",
    "sdp.solve_s": "s",
    "sdp.solve_calls": "count",
    "sdp.iterations": "count",
    "sdp.s_per_iter": "s",
    "sdp.n_vars_max": "count",
    "sdp.block_dim_max": "count",
    "sdp.solve_s.witness": "s",
    "sdp.solve_s.reconcile": "s",
    "sdp.iterations.witness": "count",
    "sdp.iterations.reconcile": "count",
    "sdp.status.optimal": "count",
    "sdp.status.max_iterations": "count",
    "sdp.status.other": "count",
    "sdp.useful_iter_frac": "ratio",
    "bound.build_measurements_s": "s",
    "bound.build_measurements_calls": "count",
    "bound.simulate_s": "s",
    "bound.witness_s": "s",
    "bound.witness_self_s": "s",
    "bound.ladder_rungs": "ratio",
    "bound.reconcile_s": "s",
    "bound.reconcile_self_s": "s",
    "bound.verify_s": "s",
    "bound.nu_l1_max": "1",
    "bound.psd_shift_max": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer values (see LAYER_UNITS) from one traced pass."""
    own = self_times(spans)

    def ancestor_in(i: int, names) -> str | None:
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name in names:
                return spans[parent].name
            parent = spans[parent].parent
        return None

    def pick(names, outermost=False):
        return [
            i for i, s in enumerate(spans)
            if s.name in names and not (outermost and ancestor_in(i, names))
        ]

    def seconds(idx) -> float:
        return sum(spans[i].seconds for i in idx)

    def attr(idx, key) -> list:
        return [spans[i].attrs[key] for i in idx if key in spans[i].attrs]

    solves = pick(SOLVE)
    caller = {i: ancestor_in(i, WITNESS + RECONCILE) for i in solves}
    by_witness = [i for i in solves if caller[i] in WITNESS]
    by_reconcile = [i for i in solves if caller[i] in RECONCILE]
    witness_top = pick(WITNESS, outermost=True)
    clicks = pick(("detector.click_matrix",))
    statuses = attr(solves, "status")
    iterations = sum(attr(solves, "iterations"))
    solve_s = seconds(solves)

    values = {
        "fock.state_s": seconds(pick(FOCK, outermost=True)),
        "fock.state_calls": len(pick(FOCK)),
        "detector.homodyne_povm_s": seconds(pick(("detector.homodyne_povm",), True)),
        "detector.homodyne_povm_calls": len(pick(("detector.homodyne_povm",))),
        "detector.lo_components": sum(attr(pick(("detector.homodyne_povm",)), "lo_components")),
        "detector.click_matrix_s": seconds(pick(("detector.click_matrix",), True)),
        "detector.convolution_matrix_s": seconds(pick(("detector.convolution_matrix",), True)),
        "detector.click_matrix_calls": len(clicks),
        "detector.click_matrix_distinct_frac": _ratio(len(set(attr(clicks, "key"))), len(clicks)),
        "negativity.exact_ln_s": seconds(pick(("negativity.exact_log_negativity",), True)),
        "negativity.exact_ln_calls": len(pick(("negativity.exact_log_negativity",))),
        "negativity.dim_max": max(attr(pick(("negativity.exact_log_negativity",)), "dim"), default=0),
        "sdp.solve_s": solve_s,
        "sdp.solve_calls": len(solves),
        "sdp.iterations": iterations,
        "sdp.s_per_iter": _ratio(solve_s, iterations),
        "sdp.n_vars_max": max(attr(solves, "n_vars"), default=0),
        "sdp.block_dim_max": max(attr(solves, "block_dim"), default=0),
        "sdp.solve_s.witness": seconds(by_witness),
        "sdp.solve_s.reconcile": seconds(by_reconcile),
        "sdp.iterations.witness": sum(attr(by_witness, "iterations")),
        "sdp.iterations.reconcile": sum(attr(by_reconcile, "iterations")),
        "sdp.status.optimal": statuses.count("optimal"),
        "sdp.status.max_iterations": statuses.count("max_iterations"),
        "sdp.status.other": len(statuses) - statuses.count("optimal") - statuses.count("max_iterations"),
        "sdp.useful_iter_frac": _ratio(sum(attr(solves, "useful_iterations")), iterations),
        "bound.build_measurements_s": seconds(pick(("bound.build_measurements",), True)),
        "bound.build_measurements_calls": len(pick(("bound.build_measurements",))),
        "bound.simulate_s": seconds(pick(("bound.simulate_expectations",), True)),
        "bound.witness_s": seconds(witness_top),
        "bound.witness_self_s": sum(own[i] for i in pick(WITNESS)),
        "bound.ladder_rungs": _ratio(len(by_witness), len(witness_top)),
        "bound.reconcile_s": seconds(pick(RECONCILE, True)),
        "bound.reconcile_self_s": sum(own[i] for i in pick(RECONCILE)),
        "bound.verify_s": seconds(pick(("bound.verify_bound",), True)),
        "bound.nu_l1_max": max(attr(pick(WITNESS), "nu_l1"), default=0.0),
        "bound.psd_shift_max": max(attr(pick(WITNESS), "psd_shift"), default=0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
