"""Command-line harness: POVM export, Wigner grids, bounds, sweeps, tables.

Configuration is a single JSON document with sections state / detector /
noise / sweep; every field has a default chosen so that an empty
configuration reproduces the headline error-budget table.  Each
ExperimentConfig field names its section, help text and any allowed values,
and that one entry gives its document key, its flag (name, type, help and
choices) and, for a sweep axis, the field the axis sets.  Resolution
order: built-in defaults, then per-axis sweep defaults, then the config
file, whose unknown keys and values that fail the flag's type or choices
are rejected, then command-line flags.  All CSV output uses a header row,
fixed column order, 10 significant digits, '.' decimals and LF line
endings, and is byte-identical for identical configuration and seed
(wall-clock timing is only added with --timing).
"""

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bound as bound_mod
from . import detector as detector_mod
from . import fock, negativity

TABLE_EPSILONS = (0.0, 0.001, 0.01, 0.1)

# parameter sets of the published studies, applied below the user's config
# when the matching sweep axis is selected
AXIS_DEFAULTS = {
    "lam": {
        "state": {"transmission": 0.9, "apd_efficiency": 0.15},
        "sweep": {"values": [0.1, 0.15, 0.2, 0.25, 0.3]},
    },
    "transmission": {
        "state": {"apd_efficiency": 0.15},
        "sweep": {"values": [0.80, 0.85, 0.90, 0.95, 0.99]},
    },
    "reflectivity": {
        "state": {"lam": 0.1, "transmission": 0.9, "apd_efficiency": 0.15},
        "detector": {"lo_amplitude": 2.5},
        "sweep": {"values": [0.5, 0.6, 0.7, 0.8, 0.9, 0.99]},
    },
    "epsilon": {
        "state": {"transmission": 0.9, "apd_efficiency": 0.15},
        "noise": {"kind": "static_calibration"},
        "sweep": {"values": [0.02, 0.04, 0.06, 0.08, 0.1]},
    },
    "width": {
        "state": {"transmission": 0.9, "apd_efficiency": 0.15},
        "noise": {"kind": "phase_averaged"},
        "sweep": {"values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]},
    },
}


def _setting(section: str, default, help: str, **flag):
    """A config field stored in `section` of the document, under its name
    less any `section_` prefix.  `help` and `flag` describe its command-line
    flag: `choices` lists its allowed values and `flag` overrides its name."""
    return field(default=default, metadata={"section": section, "help": help, **flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat view of the JSON configuration document."""

    lam: float = _setting("state", 0.2, "squeezing parameter")
    n_max: int = _setting(
        "state",
        3,
        "per-mode Fock cutoff; a bound's memory grows like (n_max+1)^8: "
        "about 0.3 GB at 5 and over 1 GB at 6, while 8 needs about 8 GB",
    )
    transmission: float = _setting("state", 0.95, "subtraction BS transmission")
    apd_efficiency: float = _setting("state", 0.20, "subtraction APD efficiency")
    lo_amplitude: float = _setting("detector", 1.0, "LO amplitude")
    reflectivity: float = _setting("detector", 0.5, "homodyne BS reflectivity")
    efficiency: float = _setting("detector", 0.1, "TMD detector efficiency")
    bins: int = _setting("detector", 8, "TMD bin count")
    phases: tuple = _setting(
        "detector", (0.0, math.pi / 2.0), "comma-separated LO phases in radians"
    )
    noise_kind: str | None = _setting(
        "noise", None, "noise model", choices=bound_mod.NOISE_KINDS, flag="--noise"
    )
    noise_epsilon: float = _setting("noise", 0.0, "static calibration error scale")
    noise_width: float = _setting("noise", 0.0, "phase averaging width (radians)")
    noise_samples: int = _setting("noise", 100, "LO phase samples per averaged setting")
    width_is_std: bool = _setting("noise", False, "interpret width as a standard deviation")
    trials: int = _setting("noise", 20, "noise trials per point")
    seed: int | None = _setting("noise", None, "noise seed (required for noise runs)")
    sweep_axis: str | None = _setting(
        "sweep", None, "sweep axis", choices=tuple(sorted(AXIS_DEFAULTS))
    )
    sweep_values: tuple | None = _setting("sweep", None, "comma-separated sweep values")

    def document(self) -> dict:
        doc = {}
        for key, f in _FIELDS.items():
            val = getattr(self, f.name)
            doc.setdefault(f.metadata["section"], {})[key] = (
                list(val) if isinstance(val, tuple) else val
            )
        return doc


# document key -> ExperimentConfig field; a sweep axis is the key it sets
_FIELDS = {
    f.name.removeprefix(f.metadata["section"] + "_"): f for f in fields(ExperimentConfig)
}


def _number(val) -> float:
    """val as a float where it is an int or a float, and not a bool."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"{val!r} is not a number")
    return float(val)


def _cast(f, val):
    """val as f's annotated type, and one of f's choices where it has them.

    The conversion loses nothing: a bool takes only a boolean, an int an
    integer or an integral float, a float a number, a tuple a list of
    numbers (held as floats) and a str a string; None stays None where the
    annotation allows it."""
    types = typing.get_args(f.type) or (f.type,)
    if val is None and type(None) in types:
        return None
    kind = types[0]
    if kind is tuple:
        if not isinstance(val, (list, tuple)):
            raise TypeError(f"{val!r} is not a list")
        val = tuple(_number(v) for v in val)
    elif kind is float:
        val = _number(val)
    elif kind is int:
        integral = isinstance(val, float) and val.is_integer()
        if isinstance(val, bool) or not (isinstance(val, int) or integral):
            raise ValueError(f"{val!r} is not an integer")
        val = int(val)
    elif not isinstance(val, kind):
        raise TypeError(f"{val!r} is not a {kind.__name__}")
    if val not in f.metadata.get("choices", (val,)):
        raise ValueError(f"{val!r} is not one of {f.metadata['choices']}")
    return val


def _config_from_document(doc: dict) -> ExperimentConfig:
    """Typed config from a complete document (every key present, as
    resolve_config guarantees by starting from ExperimentConfig().document())."""
    return ExperimentConfig(
        **{f.name: _cast(f, doc[f.metadata["section"]][key]) for key, f in _FIELDS.items()}
    )


def _merge(doc: dict, extra: dict):
    for section, entries in extra.items():
        doc[section].update(entries)


def resolve_config(args) -> ExperimentConfig:
    """Defaults, then axis defaults, then config file, then flags."""
    doc = ExperimentConfig().document()
    file_doc = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_doc = json.load(fh)
    if not (isinstance(file_doc, dict) and all(isinstance(v, dict) for v in file_doc.values())):
        raise SystemExit("the config file must be a JSON object of section objects")
    unknown, bad = [], []
    for section, entries in file_doc.items():
        if section not in doc:
            unknown.append(section)
            continue
        for key, val in entries.items():
            if key not in doc[section]:
                unknown.append(f"{section}.{key}")
                continue
            try:
                _cast(_FIELDS[key], val)
            except (TypeError, ValueError, OverflowError):
                bad.append(f"{section}.{key}={json.dumps(val)}")
    if unknown:
        raise SystemExit(f"unknown config keys: {', '.join(unknown)}")
    if bad:
        raise SystemExit(f"bad config values: {', '.join(bad)}")
    axis = getattr(args, "sweep_axis", None)
    if axis is None:
        axis = file_doc.get("sweep", {}).get("axis")
    if axis is not None:
        _merge(doc, AXIS_DEFAULTS[axis])
        doc["sweep"]["axis"] = axis
    _merge(doc, file_doc)
    for key, f in _FIELDS.items():
        val = getattr(args, f.name, None)
        if val is not None and val is not False:
            doc[f.metadata["section"]][key] = val
    return _config_from_document(doc)


# ---------------------------------------------------------------------------
# model assembly


def make_states(cfg: ExperimentConfig):
    """Initial two-mode squeezed state and its conditional subtracted state."""
    initial = fock.two_mode_squeezed(fock.SqueezedParams(cfg.lam, cfg.n_max))
    subtracted, p_click = fock.photon_subtracted_conditional(
        initial,
        fock.SubtractionParams(cfg.transmission, cfg.apd_efficiency),
    )
    return initial, subtracted, p_click


def make_detector(cfg: ExperimentConfig) -> detector_mod.DetectorConfig:
    return detector_mod.DetectorConfig(
        lo_amplitude=cfg.lo_amplitude,
        lo_phase=0.0,
        reflectivity=cfg.reflectivity,
        tmd=detector_mod.TmdConfig(bins=cfg.bins, efficiency=cfg.efficiency),
    )


def noise_model(cfg: ExperimentConfig) -> bound_mod.PhaseNoiseModel:
    if cfg.seed is None:
        raise SystemExit("--seed is required for noise runs")
    return bound_mod.PhaseNoiseModel(
        kind=cfg.noise_kind,
        epsilon=cfg.noise_epsilon,
        width=cfg.noise_width,
        samples=cfg.noise_samples,
        seed=cfg.seed,
        width_is_std=cfg.width_is_std,
    )


def _bound_for(cfg: ExperimentConfig, state, det, robust_epsilon=0.0, operators=None):
    if operators is None:
        operators = bound_mod.build_measurements(
            det, det, phases=cfg.phases, signal_cutoff=cfg.n_max
        )
    data = bound_mod.simulate_expectations(state, operators)
    ms = bound_mod.MeasurementSet(operators, data)
    result = bound_mod.lower_bound_negativity_robust(ms, robust_epsilon)
    check = bound_mod.verify_bound(ms, result)
    return result, check, operators


# ---------------------------------------------------------------------------
# CSV / JSON emission


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_povm(args) -> int:
    cfg = resolve_config(args)
    det = make_detector(cfg)
    settings = []
    for phase in cfg.phases:
        povm = detector_mod.homodyne_povm(replace(det, lo_phase=float(phase)), cfg.n_max)
        settings.append(detector_mod.povm_set_to_json(povm))
    write_json(args.out, {"signal_cutoff": cfg.n_max, "settings": settings})
    return 0


def cmd_wigner(args) -> int:
    cfg = resolve_config(args)
    det = make_detector(cfg)
    half = float(args.extent)
    n = int(args.grid_points)
    xs = np.linspace(-half, half, n)
    ps = np.linspace(-half, half, n)
    outcomes = [int(b) for b in args.outcomes.split(",")]
    for phase in cfg.phases:
        povm = detector_mod.homodyne_povm(replace(det, lo_phase=float(phase)), cfg.n_max)
        by_outcome = {e.outcome: e.operator for e in povm.elements}
        for beta in outcomes:
            if beta not in by_outcome:
                raise SystemExit(f"outcome {beta} not produced by this detector")
            grid = detector_mod.wigner_of_operator(by_outcome[beta], xs, ps)
            rows = [
                (float(xs[i]), float(ps[j]), float(grid[i, j]))
                for i in range(n)
                for j in range(n)
            ]
            name = f"wigner_beta{beta}_theta{format(float(phase), '.6g')}.csv"
            write_csv(f"{args.out_dir}/{name}", ("x", "p", "w"), rows)
    return 0


def cmd_bound(args) -> int:
    cfg = resolve_config(args)
    _, state, p_click = make_states(cfg)
    det = make_detector(cfg)
    exact = negativity.exact_log_negativity(state).log_negativity
    if cfg.noise_kind is not None:
        model = noise_model(cfg)
        results = bound_mod.noise_trials(
            state, det, det, model, trials=cfg.trials, phases=cfg.phases,
            robust_epsilon=float(args.robust_epsilon),
        )
        payload = []
        for res in results:
            doc = bound_mod.bound_result_to_json(res)
            doc["reconciliation"] = res.info.get("reconciliation", {})
            payload.append(doc)
        bounds = [res.lower_bound for res in results]
        write_json(
            args.out,
            {
                "config": cfg.document(),
                "exact_log_negativity": exact,
                "heralding_probability": p_click,
                "trials": payload,
                "bound_min": min(bounds),
                "bound_max": max(bounds),
            },
        )
        failed = any(res.solver_status == "numerical_failure" for res in results)
        return 1 if failed else 0
    result, check, _ = _bound_for(cfg, state, det, float(args.robust_epsilon))
    doc = bound_mod.bound_result_to_json(result)
    doc.update(
        {
            "config": cfg.document(),
            "exact_log_negativity": exact,
            "heralding_probability": p_click,
            "verified": check["verified"],
        }
    )
    write_json(args.out, doc)
    return 0 if result.solver_status != "numerical_failure" else 1


SWEEP_HEADER = (
    "axis",
    "value",
    "exact_ln_initial",
    "exact_ln_subtracted",
    "certified_bound",
    "pct_increase",
    "pct_bound_error",
    "solver_status",
    "verified",
)


def run_sweep(cfg: ExperimentConfig):
    """One row per sweep value; failures abort the row, not the sweep."""
    rows = []
    failed = False
    op_cache = {}
    axis_field = _FIELDS[cfg.sweep_axis]
    for value in sorted(cfg.sweep_values):
        point = replace(cfg, **{axis_field.name: value})
        t0 = time.monotonic()
        try:
            initial, state, _ = make_states(point)
            e_ini = negativity.exact_log_negativity(initial).log_negativity
            e_sub = negativity.exact_log_negativity(state).log_negativity
            det = make_detector(point)
            if axis_field.metadata["section"] == "noise":
                model = noise_model(point)
                results = bound_mod.noise_trials(
                    state, det, det, model, trials=point.trials, phases=point.phases
                )
                lower = min(res.lower_bound for res in results)
                status = next(
                    (r.solver_status for r in results if r.solver_status != "optimal"),
                    "optimal",
                )
                verified = all(r.info["verified"] for r in results)
            else:
                key = (det, point.phases, point.n_max)
                ops = op_cache.get(key)
                result, check, ops = _bound_for(point, state, det, operators=ops)
                op_cache[key] = ops
                lower = result.lower_bound
                status = result.solver_status
                verified = check["verified"]
            pct_inc = (e_sub - e_ini) / e_ini * 100.0
            pct_err = (e_sub - lower) / e_sub * 100.0
            rows.append(
                [cfg.sweep_axis, value, e_ini, e_sub, lower, pct_inc, pct_err, status, verified]
                + [time.monotonic() - t0]
            )
        except Exception as exc:  # record the failure and continue the sweep
            failed = True
            nan = float("nan")
            rows.append(
                [cfg.sweep_axis, value, nan, nan, nan, nan, nan,
                 "error: " + str(exc).replace(",", ";"), False, time.monotonic() - t0]
            )
    return rows, failed


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if cfg.sweep_axis is None:
        raise SystemExit("sweep requires --axis or a sweep.axis config entry")
    if not cfg.sweep_values:
        raise SystemExit("sweep requires --values or a non-empty sweep.values config entry")
    rows, failed = run_sweep(cfg)
    header = SWEEP_HEADER + (("wall_time_s",) if args.timing else ())
    out_rows = [r if args.timing else r[:-1] for r in rows]
    write_csv(args.out, header, out_rows)
    return 1 if failed else 0


def cmd_table(args) -> int:
    cfg = resolve_config(args)
    initial, state, _ = make_states(cfg)
    e_ini = negativity.exact_log_negativity(initial).log_negativity
    e_sub = negativity.exact_log_negativity(state).log_negativity
    rows = [
        ["N_ini", "", e_ini, "exact", True],
        ["N_ideal", "", e_sub, "exact", True],
    ]
    det = make_detector(cfg)
    ops = None
    failed = False
    for eps in TABLE_EPSILONS:
        try:
            result, check, ops = _bound_for(cfg, state, det, eps, operators=ops)
            rows.append(["bound", eps, result.lower_bound, result.solver_status, check["verified"]])
            if result.solver_status == "numerical_failure":
                failed = True
        except Exception as exc:
            failed = True
            rows.append(["bound", eps, float("nan"), "error: " + str(exc).replace(",", ";"), False])
    write_csv(args.out, ("row", "epsilon", "value", "solver_status", "verified"), rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_settings(parser: argparse.ArgumentParser, *sections: str):
    """--config, then one flag per ExperimentConfig field of `sections` in
    field order: --KEY with dashes unless the field names its flag, typed by
    the field's annotation and limited to its choices."""
    parser.add_argument("--config", help="JSON configuration file")
    for key, f in _FIELDS.items():
        flag = dict(f.metadata)
        if flag.pop("section") not in sections:
            continue
        kind = (typing.get_args(f.type) or (f.type,))[0]
        if kind is bool:
            flag.update(action="store_true", default=None)
        elif kind is tuple:
            flag.update(metavar=key.upper(), type=lambda s: tuple(float(x) for x in s.split(",")))
        elif "choices" not in flag:
            flag.update(metavar=key.upper(), type=kind)
        parser.add_argument(flag.pop("flag", "--" + key.replace("_", "-")), dest=f.name, **flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcert",
        description="Certified lower bounds on two-mode entanglement from "
        "photon-counting weak-homodyne data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("povm", help="serialize the homodyne POVM settings to JSON")
    _add_settings(p, "state", "detector")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("wigner", help="emit Wigner-function CSV grids of POVM elements")
    _add_settings(p, "state", "detector")
    p.add_argument("--outcomes", default="1,2,3", help="comma-separated click counts")
    p.add_argument("--grid-points", dest="grid_points", default=201, type=int)
    p.add_argument("--extent", default=5.0, type=float, help="grid half-width in x and p")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("bound", help="certify one bound from simulated data")
    _add_settings(p, "state", "detector", "noise")
    p.add_argument(
        "--robust-epsilon",
        dest="robust_epsilon",
        default=0.0,
        type=float,
        help="relative data error budget",
    )
    p.add_argument("--out", help="output JSON file (default stdout)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="sweep one axis and emit a CSV table")
    _add_settings(p, "state", "detector", "noise", "sweep")
    p.add_argument("--timing", action="store_true", help="append a wall_time_s column")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="error-budget table with exact reference rows")
    _add_settings(p, "state", "detector")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a ValueError from the library, a setting it
    cannot take, ends it with one line on stderr and exit code 2, the code
    of a refused flag."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"entcert {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
