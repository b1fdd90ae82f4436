"""Log every solve and bound of a pytest run, and compare two logs.

    PYTHONPATH=src:tools python -m pytest -p solvelog --solvelog=LOG [PYTEST ARGS...]
    python3 tools/solvelog.py OLD_LOG NEW_LOG

Loaded into pytest with ``-p solvelog`` (``tools/`` on the path) and given
``--solvelog=LOG``, it writes LOG with one JSON line per result of
``entcert.sdp.solve`` (kind ``solve``), of each witness rung (``rung``),
of each witness bound with its kept rung (``bound``), of
``reconcile_expectations`` (``reconcile``) and of ``verify_bound``
(``verify``), as each call returns.  Each line holds the test's node id,
the kind, the call's path and the result's fields: status, iterations,
a solve's kept centrality correctors (``info["correctors"]``), the rung's
null cut and every float as ``float.hex``, so a compare sees each changed
bit.  The path names the call by its ordinal among the calls of its kind
within the enclosing logged call, or within the test, as
``bound#2/rung#0/solve#0``; so a ladder that runs one more rung moves the
paths of that bound's own calls alone.  Solves run in child processes
are not logged.  Give the log in the one-argument form: pytest counts a
separate LOG argument among the paths that fix its root directory, and the
test ids, which are relative to it, would then differ between checkouts.

Run as a script, it matches the records of two logs on (test, path) and
prints every record whose fields differ, with |delta| of each float, then
the records found in one log only, and a summary per log: records per
kind, solve iterations, correctors and statuses, and the largest |delta|
of each float field.  The exit code is 0, or 2 without two logs.
"""

import functools
import inspect
import json
import sys
from collections import Counter

FLOAT_FIELDS = ("lower_bound", "linear_objective", "objective", "fit_residual", "max_shift")


def _hex(value) -> str:
    return float(value).hex()


# the fields of each logged result, from the call's arguments by name and
# the value it returned


def _solve_fields(args, sol):
    return {
        "status": sol.status, "iterations": sol.iterations,
        "objective": _hex(sol.objective_value), "n_vars": args["program"].n_vars,
        # None in a log of a solver that keeps no count
        "correctors": sol.info.get("correctors"),
    }


def _rung_fields(args, out):
    sol, res = out
    return {
        "epsilon": args["epsilon"], "null_cut": args["null_cut"], "status": sol.status,
        "iterations": sol.iterations, "lower_bound": _hex(res.lower_bound),
        "linear_objective": _hex(res.linear_objective),
    }


def _bound_fields(args, res):
    return {
        "epsilon": args["epsilon"], "null_cut": res.info.get("null_cut"),
        "status": res.solver_status, "iterations": res.info["iterations"],
        "lower_bound": _hex(res.lower_bound),
    }


def _reconcile_fields(args, out):
    info = out[1]
    return {
        "status": info["fit_status"], "iterations": info["fit_iterations"],
        "fit_residual": _hex(info["fit_residual"]), "max_shift": _hex(info["max_shift"]),
    }


def _verify_fields(args, check):
    return {
        "verified": check["verified"], "lower_bound": _hex(args["result"].lower_bound),
        "linear_objective": _hex(check["linear_objective"]),
    }


class SolveLog:
    """Wraps the logged functions in their modules and writes one line per
    result to the open file out, under the node id set by start."""

    def __init__(self, out):
        from entcert import bound, sdp

        self.out = out
        self.test = "<collection>"
        # calls so far per enclosing path and kind, and the open calls
        self.counts = Counter()
        self.path = []
        self.targets = [
            (sdp, "solve", "solve", _solve_fields),
            (bound, "_witness_rung", "rung", _rung_fields),
            (bound, "_solve_witness", "bound", _bound_fields),
            (bound, "reconcile_expectations", "reconcile", _reconcile_fields),
            (bound, "verify_bound", "verify", _verify_fields),
        ]
        self.saved = []

    def start(self, test: str) -> None:
        self.test = test
        self.counts.clear()

    def _open(self, kind: str) -> str:
        key = ("/".join(self.path), kind)
        self.path.append(f"{kind}#{self.counts[key]}")
        self.counts[key] += 1
        return "/".join(self.path)

    def install(self) -> None:
        for module, name, kind, fields in self.targets:
            fn = getattr(module, name)
            self.saved.append((module, name, fn))
            setattr(module, name, self._logged(fn, kind, fields))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self.saved):
            setattr(module, name, fn)
        self.saved.clear()

    def _logged(self, fn, kind, fields):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def logged(*args, **kwargs):
            path = self._open(kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.path.pop()
            record = {"test": self.test, "kind": kind, "path": path}
            record.update(fields(signature.bind(*args, **kwargs).arguments, out))
            self.out.write(json.dumps(record) + "\n")
            return out

        return logged


# ---------------------------------------------------------------------------
# pytest plugin


def pytest_addoption(parser):
    parser.addoption("--solvelog", metavar="LOG", help="write one JSON line per solve and bound to LOG")


# the log of this pytest process, when --solvelog is given
_LOGS = []


def pytest_configure(config):
    path = config.getoption("--solvelog")
    if path:
        log = SolveLog(open(path, "w"))
        log.install()
        _LOGS.append(log)


def pytest_runtest_logstart(nodeid, location):
    for log in _LOGS:
        log.start(nodeid)


def pytest_unconfigure(config):
    while _LOGS:
        log = _LOGS.pop()
        log.uninstall()
        log.out.close()


# ---------------------------------------------------------------------------
# compare


def read(path) -> dict:
    """The records of a log, keyed by (test, path)."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["test"], r["path"]): r for r in records}


def _fields(record) -> dict:
    return {k: v for k, v in record.items() if k not in ("test", "kind", "path")}


def moves(old: dict, new: dict):
    """(key, [(field, old value, new value, |delta| or None)]) for every
    record in both logs whose fields differ, in the new log's order."""
    out = []
    for key in new:
        if key not in old:
            continue
        a, b = _fields(old[key]), _fields(new[key])
        changed = []
        for name in sorted(set(a) | set(b)):
            va, vb = a.get(name), b.get(name)
            if va == vb:
                continue
            if name in FLOAT_FIELDS and va is not None and vb is not None:
                fa, fb = float.fromhex(va), float.fromhex(vb)
                changed.append((name, fa, fb, abs(fb - fa)))
            else:
                changed.append((name, va, vb, None))
        if changed:
            out.append((key, changed))
    return out


def summary(records: dict) -> dict:
    solves = [r for r in records.values() if r["kind"] == "solve"]
    return {
        "kinds": Counter(r["kind"] for r in records.values()),
        "iterations": sum(r["iterations"] for r in solves),
        "correctors": sum(r.get("correctors") or 0 for r in solves),
        "statuses": Counter(r["status"] for r in solves),
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: solvelog.py OLD_LOG NEW_LOG")
        return 2
    old, new = read(args[0]), read(args[1])
    found = moves(old, new)
    largest = Counter()
    for (test, path), changed in found:
        kind = new[test, path]["kind"]
        parts = []
        for name, va, vb, delta in changed:
            if delta is None:
                parts.append(f"{name} {va} -> {vb}")
            else:
                parts.append(f"{name} {va!r} -> {vb!r} (|d| {delta:.3g})")
                largest[f"{kind}.{name}"] = max(largest[f"{kind}.{name}"], delta)
        print(f"{test} {path}: " + "; ".join(parts))
    for label, only in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        for test, path in sorted(only):
            print(f"only in {label}: {test} {path}")
    for label, records in (("old", old), ("new", new)):
        s = summary(records)
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(s["kinds"].items()))
        statuses = ", ".join(f"{k} {v}" for k, v in sorted(s["statuses"].items()))
        print(
            f"{label}: {kinds}; solve iterations {s['iterations']}; "
            f"correctors {s['correctors']}; statuses {statuses}"
        )
    print(f"records that moved: {len(found)}")
    for name, delta in sorted(largest.items()):
        print(f"largest |d| {name}: {delta:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
