"""Command-line harness: config resolution, determinism, schemas, exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest

from entcert import bound as bound_mod
from entcert import cli

import oracles


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# configuration resolution


def test_axis_defaults_below_config_below_flags(tmp_path):
    args = cli.build_parser().parse_args(["sweep", "--axis", "lam", "--out", "x.csv"])
    cfg = cli.resolve_config(args)
    assert cfg.transmission == 0.9
    assert cfg.apd_efficiency == 0.15
    assert cfg.sweep_values == (0.1, 0.15, 0.2, 0.25, 0.3)

    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"state": {"transmission": 0.85}}))
    args = cli.build_parser().parse_args(
        ["sweep", "--axis", "lam", "--config", str(conf), "--out", "x.csv"]
    )
    assert cli.resolve_config(args).transmission == 0.85

    args = cli.build_parser().parse_args(
        ["sweep", "--axis", "lam", "--config", str(conf), "--transmission", "0.8", "--out", "x.csv"]
    )
    assert cli.resolve_config(args).transmission == 0.8


def test_defaults_match_error_budget_table():
    args = cli.build_parser().parse_args(["table", "--out", "x.csv"])
    cfg = cli.resolve_config(args)
    assert cfg.lam == 0.2
    assert cfg.transmission == 0.95
    assert cfg.apd_efficiency == 0.20
    assert cfg.lo_amplitude == 1.0
    assert cfg.efficiency == 0.1
    assert cfg.phases == (0.0, math.pi / 2.0)


def test_unknown_axis_rejected():
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--axis", "nope", "--out", "x.csv"])


def test_axis_from_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sweep": {"axis": "transmission", "values": [0.8, 0.9]}}))
    args = cli.build_parser().parse_args(["sweep", "--config", str(conf), "--out", "x.csv"])
    cfg = cli.resolve_config(args)
    assert cfg.sweep_axis == "transmission"
    assert cfg.sweep_values == (0.8, 0.9)
    assert cfg.apd_efficiency == 0.15


def test_unknown_config_keys_rejected(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"state": {"transmision": 0.8}, "detectr": {"bins": 4}}))
    args = cli.build_parser().parse_args(["bound", "--config", str(conf)])
    with pytest.raises(SystemExit, match="state.transmision, detectr"):
        cli.resolve_config(args)
    for malformed in ({"state": 5}, [1]):
        conf.write_text(json.dumps(malformed))
        with pytest.raises(SystemExit, match="JSON object of section objects"):
            cli.resolve_config(args)
    # a value that does not cast by its field's annotation, or lies outside
    # the field's choices, is refused the way the flag would refuse it
    for bad, named in [
        ({"state": {"n_max": "three"}}, 'state.n_max="three"'),
        ({"detector": {"phases": 0.5}}, "detector.phases=0.5"),
        ({"noise": {"kind": "gaussian"}}, 'noise.kind="gaussian"'),
        ({"sweep": {"axis": "nope"}}, 'sweep.axis="nope"'),
        ({"state": {"n_max": float("inf")}}, "state.n_max=Infinity"),
        (
            {"state": {"lam": [1], "n_max": 2}, "noise": {"seed": "x"}},
            'state.lam=[1], noise.seed="x"',
        ),
    ]:
        conf.write_text(json.dumps(bad))
        with pytest.raises(SystemExit, match=f"bad config values: {re.escape(named)}$"):
            cli.resolve_config(args)


def test_config_values_cast_by_annotation(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(
        json.dumps({"state": {"lam": 0}, "detector": {"phases": [0, 1]}, "noise": {"seed": 4.0}})
    )
    cfg = cli.resolve_config(cli.build_parser().parse_args(["bound", "--config", str(conf)]))
    assert type(cfg.lam) is float and type(cfg.seed) is int and cfg.noise_kind is None
    assert [type(p) for p in cfg.phases] == [float, float]


def test_config_values_convert_without_loss(tmp_path):
    # a value is taken only where its field's type holds it unchanged: a
    # string is no boolean, 3.7 is no count and "12" is no list of values
    conf = tmp_path / "conf.json"
    args = cli.build_parser().parse_args(["bound", "--config", str(conf)])
    for bad, named in [
        ({"noise": {"width_is_std": "false"}}, 'noise.width_is_std="false"'),
        ({"state": {"n_max": 3.7}}, "state.n_max=3.7"),
        ({"sweep": {"values": "12"}}, 'sweep.values="12"'),
        ({"state": {"n_max": True}}, "state.n_max=true"),
        ({"detector": {"phases": [0, "1"]}}, 'detector.phases=[0, "1"]'),
    ]:
        conf.write_text(json.dumps(bad))
        with pytest.raises(SystemExit, match=f"bad config values: {re.escape(named)}$"):
            cli.resolve_config(args)
    conf.write_text(json.dumps({"state": {"n_max": 2.0}, "noise": {"width_is_std": True}}))
    cfg = cli.resolve_config(args)
    assert type(cfg.n_max) is int and cfg.n_max == 2 and cfg.width_is_std is True


def test_library_value_errors_end_in_one_line(capsys):
    # a setting the library refuses ends the command with one line on
    # stderr and exit code 2, as a refused flag does, not with a traceback
    for extra, message in [
        (["--noise", "phase_averaged", "--seed", "1", "--trials", "0"], "trials must be >= 1"),
        (["--noise", "phase_averaged", "--seed", "1", "--samples", "0"], "samples must be >= 1"),
        (["--lam", "5"], "lambda must lie in [0, 1)"),
    ]:
        assert cli.main(["bound", "--n-max", "2"] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"entcert bound: error: {message}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--robust-epsilon", "nan"], "epsilon must be finite and nonnegative"),
        (["--robust-epsilon", "inf"], "epsilon must be finite and nonnegative"),
        (["--noise", "phase_averaged", "--width", "nan", "--seed", "1", "--trials", "1"],
         "width must be finite and nonnegative"),
        (["--lo-amplitude", "nan"], "lo_amplitude must be finite and >= 0"),
        (["--lo-amplitude", "inf"], "lo_amplitude must be finite and >= 0"),
        (["--phases", "nan,1.5707963"], "lo_phase must be finite"),
    ],
)
def test_non_finite_settings_end_in_one_line(capsys, extra, message):
    # NaN and infinities fail every range check, so they end as a refused
    # setting does instead of reaching the solver
    assert cli.main(["bound", "--n-max", "2"] + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"entcert bound: error: {message}\n"


@pytest.mark.parametrize("axis", [None] + sorted(cli.AXIS_DEFAULTS))
def test_document_round_trips(axis):
    argv = ["sweep", "--out", "x.csv"] + ([] if axis is None else ["--axis", axis])
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert cli._config_from_document(cfg.document()) == cfg


def test_each_field_has_one_key_and_one_flag():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions}
    names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert sorted(f.name for f in cli._FIELDS.values()) == sorted(names)
    assert set(names) <= dests
    doc = cli.ExperimentConfig().document()
    assert sum(len(keys) for keys in doc.values()) == len(names)
    # each sweep axis and each of its study defaults is a document key
    assert set(cli.AXIS_DEFAULTS) <= set(cli._FIELDS)
    for study in cli.AXIS_DEFAULTS.values():
        assert all(set(entries) <= set(doc[section]) for section, entries in study.items())


@pytest.mark.parametrize("key", list(cli._FIELDS))
def test_every_setting_works_through_its_flag(key):
    f = cli._FIELDS[key]
    kind = (typing.get_args(f.type) or (f.type,))[0]
    choices = f.metadata.get("choices")
    if choices:
        value = next(c for c in choices if c != f.default)
        words = [value]
    elif kind is bool:
        value, words = True, []
    elif kind is tuple:
        value, words = (0.25, 1.5), ["0.25,1.5"]
    else:
        value = (f.default or 0) + (1 if kind is int else 0.125)
        words = [repr(value)]
    assert value != f.default
    command = ["sweep", "--out", "x.csv"] if f.metadata["section"] == "sweep" else ["bound"]
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (flag,) = [a for a in subparsers.choices[command[0]]._actions if a.dest == f.name]
    cfg = cli.resolve_config(parser.parse_args(command + [flag.option_strings[0]] + words))
    got = getattr(cfg, f.name)
    assert got == value and type(got) is kind
    if kind is tuple:
        assert all(type(v) is float for v in got)


# ---------------------------------------------------------------------------
# povm and wigner outputs


def test_povm_json_roundtrips(tmp_path):
    out = tmp_path / "povm.json"
    assert cli.main(["povm", "--n-max", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["signal_cutoff"] == 2
    assert len(doc["settings"]) == 2
    setting, outcomes, mats = oracles.povm_from_json(doc["settings"][0])
    assert setting["kind"] == "homodyne"
    assert outcomes == list(range(9))
    assert np.max(np.abs(mats.sum(axis=0) - np.eye(3))) < 1e-6


def test_wigner_grids_and_phase_rotation(tmp_path):
    rc = cli.main(
        [
            "wigner",
            "--n-max",
            "2",
            "--outcomes",
            "1",
            "--grid-points",
            "41",
            "--extent",
            "4.0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("wigner_*.csv"))
    assert names == ["wigner_beta1_theta0.csv", "wigner_beta1_theta1.5708.csv"]

    def load(name):
        header, rows = read_csv(tmp_path / name)
        assert header == ["x", "p", "w"]
        assert len(rows) == 41 * 41
        return np.array([float(r[2]) for r in rows]).reshape(41, 41)

    w0 = load(names[0])
    w90 = load(names[1])
    # rotating the LO phase by pi/2 rotates phase space: W'(x, p) = W(p, -x)
    assert np.allclose(w90, w0[:, ::-1].T, atol=1e-8)


# ---------------------------------------------------------------------------
# bound subcommand


def test_bound_json_is_sound(tmp_path):
    out = tmp_path / "bound.json"
    assert cli.main(["bound", "--n-max", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert doc["lower_bound"] <= doc["exact_log_negativity"] + 1e-6
    assert 0.0 < doc["heralding_probability"] < 1.0
    assert doc["config"]["state"]["n_max"] == 2


def test_bound_noise_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(
            ["bound", "--n-max", "2", "--noise", "static_calibration", "--epsilon", "0.1",
             "--out", str(tmp_path / "x.json")]
        )


def test_bound_noise_trials_emitted(tmp_path):
    out = tmp_path / "noise.json"
    rc = cli.main(
        ["bound", "--n-max", "2", "--noise", "static_calibration", "--epsilon", "0.1",
         "--trials", "2", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["trials"]) == 2
    assert doc["bound_min"] <= doc["bound_max"]
    assert all("reconciliation" in t for t in doc["trials"])
    assert all(t["reconciliation"]["fit_iterations"] > 0 for t in doc["trials"])


def test_bound_noise_failed_trial_sets_exit_code(tmp_path, monkeypatch):
    # one numerical_failure among the trials fails the run, as it does for
    # a single bound; the document is still written
    noise_trials = bound_mod.noise_trials

    def second_trial_fails(*args, **kwargs):
        results = noise_trials(*args, **kwargs)
        results[1].solver_status = "numerical_failure"
        return results

    monkeypatch.setattr(bound_mod, "noise_trials", second_trial_fails)
    out = tmp_path / "noise.json"
    rc = cli.main(
        ["bound", "--n-max", "2", "--noise", "static_calibration", "--epsilon", "0.1",
         "--trials", "2", "--seed", "5", "--out", str(out)]
    )
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["trials"][1]["solver_status"] == "numerical_failure"


# ---------------------------------------------------------------------------
# sweep subcommand


def test_sweep_schema_sorting_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--axis", "lam", "--values", "0.2,0.1", "--n-max", "2"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    header, rows = read_csv(out1)
    assert header == list(cli.SWEEP_HEADER)
    assert [r[1] for r in rows] == ["0.1", "0.2"]
    for row in rows:
        assert row[0] == "lam"
        assert row[8] == "true"
        bound, err = float(row[4]), float(row[6])
        assert np.isfinite(bound) and np.isfinite(err)
        assert float(row[4]) <= float(row[3]) + 1e-6


def test_sweep_timing_column_optional(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(
        ["sweep", "--axis", "lam", "--values", "0.1", "--n-max", "2", "--timing",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == list(cli.SWEEP_HEADER) + ["wall_time_s"]
    assert float(rows[0][9]) > 0.0


def test_sweep_noise_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--axis", "epsilon", "--values", "0.1", "--n-max", "2",
                  "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("values", [None, []])
def test_sweep_without_values_rejected(tmp_path, values):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sweep": {"axis": "lam", "values": values}}))
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="sweep.values"):
        cli.main(["sweep", "--config", str(conf), "--out", str(out)])
    assert not out.exists()


def test_sweep_bad_row_sets_exit_code(tmp_path):
    out = tmp_path / "bad.csv"
    # lambda = 2 is rejected by the state family; the row errors, others survive
    rc = cli.main(
        ["sweep", "--axis", "lam", "--values", "0.1,2.0", "--n-max", "2", "--out", str(out)]
    )
    assert rc == 1
    header, rows = read_csv(out)
    assert len(rows) == 2
    good = [r for r in rows if r[8] == "true"]
    bad = [r for r in rows if r[8] == "false"]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0][7].startswith("error:")


def test_noise_sweep_reports_verify_bound_verdict(tmp_path, monkeypatch):
    # the verified column of a noise sweep is verify_bound's verdict on the
    # certified trials, not a finiteness check of the bounds
    def reject(measurements, result):
        return {"feasible": False, "bound_matches": True, "verified": False}

    monkeypatch.setattr(bound_mod, "verify_bound", reject)
    out = tmp_path / "width.csv"
    rc = cli.main(
        ["sweep", "--axis", "width", "--values", "0.4", "--n-max", "2", "--trials", "1",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert np.isfinite(float(rows[0][4]))
    assert rows[0][8] == "false"


# ---------------------------------------------------------------------------
# table subcommand


def test_table_rows_and_reference_entries(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli.main(["table", "--n-max", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["row", "epsilon", "value", "solver_status", "verified"]
    assert [r[0] for r in rows] == ["N_ini", "N_ideal", "bound", "bound", "bound", "bound"]
    assert [r[1] for r in rows[2:]] == ["0", "0.001", "0.01", "0.1"]
    e_ini, e_sub = float(rows[0][2]), float(rows[1][2])
    assert e_sub > e_ini > 0.0
    for row in rows[2:]:
        assert row[4] == "true"
        assert float(row[2]) <= e_sub + 1e-6
