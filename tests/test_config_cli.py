"""Config plumbing and the CLI subcommands end to end."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc.cli import COMMANDS, INTERVALS, build_parser, main
from amcmc.config import (
    config_hash,
    parse_config_file,
    read_csv_rows,
    resolve_config,
    write_csv,
    write_manifest,
)
from amcmc.diagnostics import Trace, write_trace_csv

SCHEMA = {"alpha": (float, 0.1), "t": (int, 5), "flags": (list, [1.0]), "on": (bool, False)}


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.25  # comment\n\n# full-line comment\nt=7\n")
    assert parse_config_file(cfg) == {"alpha": "0.25", "t": "7"}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.25\n")
    with pytest.raises(ValueError, match="expected"):
        parse_config_file(cfg)


def test_resolve_config_precedence(tmp_path):
    """Defaults <- config file <- flags."""
    got = resolve_config(SCHEMA, {"alpha": "0.5", "flags": "1,2.5"})
    assert got == {"alpha": 0.5, "t": 5, "flags": [1.0, 2.5], "on": False}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.3\nt_max = 50\n")
    assert main(["bounds", "--config", str(cfg), "--alpha", "0.2", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert (config["alpha"], config["t_max"], config["t_points"]) == ("0.2", "50", "50")


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        resolve_config(SCHEMA, {"blah": "1"})


def test_resolve_config_bools():
    assert resolve_config(SCHEMA, {"on": "yes"})["on"] is True
    with pytest.raises(ValueError, match="^on: not a boolean"):
        resolve_config(SCHEMA, {"on": "maybe"})


@pytest.mark.parametrize("raw", ["1,,2", "1,", ",1", "", " "])
def test_resolve_config_rejects_empty_list_entries(raw):
    with pytest.raises(ValueError, match="^flags: "):
        resolve_config(SCHEMA, {"flags": raw})


@pytest.mark.parametrize(
    "argv, line",
    [
        (["mixtimes", "--alphas", "0.1,,0.2"], "alphas = 0.1,,0.2"),
        (["mixture", "--data-ramp", "maybe"], "data_ramp = maybe"),
        (["bounds", "--t-max", "1e3"], "t_max = 1e3"),
    ],
)
def test_cli_flag_and_file_values_fail_alike(tmp_path, capsys, argv, line):
    """A value that a config file rejects is rejected as a flag too, with
    the same message."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    errors = []
    for extra in (argv[1:], ["--config", str(cfg)]):
        assert main([argv[0], *extra, "--out", str(tmp_path)]) == 2
        errors.append(json.loads(capsys.readouterr().err.strip())["error"])
    assert errors[0] == errors[1] and errors[0].startswith(line.split(" ")[0] + ": ")
    assert not (tmp_path / "manifest.json").exists()


def test_cli_flag_and_file_values_parse_alike(tmp_path):
    """``--data-ramp 0`` and ``data_ramp = 0`` give the same config."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_ramp = 0\n")
    args = ["mixture", "--N", "200", "--steps", "4", "--burn-in", "2", "--top-cells", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--data-ramp", "0", "--out", str(a)]) == 0
    assert main(args + ["--config", str(cfg), "--out", str(b)]) == 0
    manifest = (a / "manifest.json").read_text()
    assert json.loads(manifest)["config"]["data_ramp"] == "False"
    assert manifest == (b / "manifest.json").read_text()


def test_config_hash_stable_and_order_independent():
    h1 = config_hash({"a": 1, "b": 2.0})
    h2 = config_hash({"b": 2.0, "a": 1})
    assert h1 == h2 and len(h1) == 64
    assert h1 != config_hash({"a": 1, "b": 2.5})


def test_write_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    path = write_manifest(tmp_path, "bounds", {"alpha": 0.1, "seed": 3})
    data = json.loads(path.read_text())
    assert data["subcommand"] == "bounds"
    assert data["seed"] == 3
    assert sorted(data["versions"]) == ["amcmc", "numpy", "python"]
    assert data["cpu_count"] == os.cpu_count()
    assert data["threads"] == {"MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"}


def test_csv_roundtrip_exact_floats(tmp_path):
    rows = [(1, 0.1 + 0.2, "x"), (2, 1e-17, "y")]
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "v", "s"), rows)
    header, back = read_csv_rows(path)
    assert header == ["i", "v", "s"]
    assert float(back[0][1]) == 0.1 + 0.2  # repr round-trip
    assert float(back[1][1]) == 1e-17


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_cli_bounds(tmp_path):
    code = main(["bounds", "--out", str(tmp_path), "--alpha", "0.2", "--t-max", "100"])
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "bounds.csv")
    assert header[0] == "t"
    assert len(rows) > 10
    assert (tmp_path / "manifest.json").exists()


def test_cli_mixtimes_spans_expected_range(tmp_path):
    assert main(["mixtimes", "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "mixtimes.csv")
    assert len(rows) == 4
    times = sorted(float(r[2]) for r in rows)
    assert 43.0 < times[0] < 46.0
    assert 92000.0 < times[-1] < 92200.0


def test_cli_mixtimes_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["mixtimes", "--out", str(a)])
    main(["mixtimes", "--out", str(b)])
    assert (a / "mixtimes.csv").read_bytes() == (b / "mixtimes.csv").read_bytes()


def test_cli_verify_finite(tmp_path):
    assert main(["verify-finite", "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "verify_finite.csv")
    assert all(r[1] == "1" for r in rows)
    assert len(rows) == 5


def test_cli_mixture_small(tmp_path):
    code = main(
        [
            "mixture",
            "--out", str(tmp_path),
            "--seed", "1",
            "--N", "400",
            "--steps", "20",
            "--burn-in", "10",
            "--top-cells", "5",
        ]
    )
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "mixture_cells.csv")
    assert len(rows) == 5
    _, summary = read_csv_rows(tmp_path / "mixture_summary.csv")
    assert summary[0][0] == "w1_exact_vs_approx"
    assert float(summary[0][1]) >= 0.0


def test_cli_logistic_small(tmp_path):
    code = main(
        [
            "logistic",
            "--out", str(tmp_path),
            "--seed", "2",
            "--N", "200",
            "--p", "3",
            "--subset-sizes", "50,200",
            "--steps", "20",
            "--burn-in", "5",
            "--audit-every", "10",
        ]
    )
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "logistic_subsets.csv")
    assert len(rows) == 2
    # |V| = N row is bit-identical to the exact chain
    assert float(rows[1][1]) == 0.0


def test_cli_gp_small(tmp_path):
    code = main(
        [
            "gp",
            "--out", str(tmp_path),
            "--seed", "3",
            "--n", "50",
            "--steps", "30",
            "--burn-in", "10",
        ]
    )
    assert code == 0
    _, summary = read_csv_rows(tmp_path / "gp_summary.csv")
    metrics = {r[0]: float(r[1]) for r in summary}
    assert metrics["mean_rank"] >= 1.0
    assert 0.0 <= metrics["accept_rate"] <= 1.0


def test_cli_gp_epsilon_retarget(tmp_path):
    code = main(
        [
            "gp",
            "--out", str(tmp_path),
            "--seed", "3",
            "--n", "40",
            "--steps", "10",
            "--burn-in", "5",
            "--epsilon", "0.1",
        ]
    )
    assert code == 0
    _, summary = read_csv_rows(tmp_path / "gp_summary.csv")
    metrics = {r[0]: float(r[1]) for r in summary}
    assert metrics["delta"] > 0.0
    assert metrics["delta"] != 0.001  # retargeted away from the default



def test_cli_gp_delta_below_the_floor_exits_2_with_json(tmp_path, capsys):
    argv = ["gp", "--out", str(tmp_path), "--n", "500", "--q", "6", "--design", "normal",
            "--phi-true", "0.1", "--delta", "1e-14", "--steps", "2", "--burn-in", "0"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["subcommand"] == "gp" and "misses delta = 1.000e-14" in err["error"]
    assert "rounding of the dense eigendecomposition" in err["error"]
    assert not (tmp_path / "manifest.json").exists()

def test_cli_diagnose_roundtrip(tmp_path):
    run_dir = tmp_path / "gp"
    main(["gp", "--out", str(run_dir), "--seed", "4", "--n", "40", "--steps", "120", "--burn-in", "10"])
    code = main(
        ["diagnose", "--out", str(tmp_path), "--trace", str(run_dir / "gp_trace.csv")]
    )
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "diagnose_coords.csv")
    assert header == ["coord", "ess", "constant_flag", "geweke_z"]
    assert len(rows) == 3


def test_cli_error_is_machine_readable(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["bounds", "--out", str(tmp_path), "--config", str(cfg)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and err["subcommand"] == "bounds"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.45 GiB"), MemoryError()])
def test_memory_error_gets_the_json_record(tmp_path, capsys, monkeypatch, exc):
    """A handler that runs out of memory (say on a huge --grid-size) exits 2
    with the JSON record, not a traceback; the handler only raises, so no
    memory is asked for."""
    import amcmc.cli

    def out_of_memory(cfg, out):
        raise exc

    monkeypatch.setattr(amcmc.cli, "cmd_compminimax", out_of_memory)
    assert main(["compminimax", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": str(exc) or "MemoryError", "subcommand": "compminimax"}
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["gp", "--steps", "0"], "steps"),
        (["gp", "--budget-steps", "0"], "steps"),
        (["mixture", "--K", "0"], "K"),
        (["bounds", "--t-max", "0"], "t_max"),
    ],
)
def test_cli_out_of_range_exits_2_with_json(tmp_path, capsys, argv, key):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["subcommand"] == argv[0]
    assert err["error"].startswith(f"{key} must be >= ")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["compminimax", "--tau-max", "inf"], "tau_max"),
        (["compminimax", "--tau-min", "nan"], "tau_min"),
        (["logistic", "--prior-var", "-1"], "prior_var"),
        (["gp", "--epsilon", "nan"], "epsilon"),
        (["mixture", "--n-min", "nan"], "n_min"),
        (["mixtimes", "--alphas", "0.1,inf"], "alphas"),
        # f^2 overflowed, and 4 f^2 * 0 made every L2 bound NaN
        (["compminimax", "--discrepancy", "l2", "--fstar", "1e200", "--tv0", "0"], "fstar"),
        # alpha^2 underflowed to 0, and the L2 bias term divided by it
        (["bounds", "--alpha", "1e-200", "--epsilon", "0"], "alpha"),
        # sigma2^2 in delta_for_epsilon raised OverflowError
        (["gp", "--epsilon", "1", "--sigma2-true", "1e300"], "sigma2_true"),
        # delta_for_epsilon gave delta = 1.25e297, and (delta / 2)^2 raised
        # OverflowError
        (["gp", "--epsilon", "1", "--tau2-true", "1e-300"], "tau2_true"),
        # tau2 sqrt(n (tau2 lam_max + sigma2)) underflowed to 0, and
        # delta_for_epsilon raised ZeroDivisionError
        (["gp", "--n", "5", "--phi-grid-size", "2", "--epsilon", "1", "--sigma2-true", "1e-308",
          "--tau2-true", "1e-216"], "sigma2_true"),
        # 10^-400 underflowed to 0, the probe safety factor was inf, and the
        # range finder grew the basis to rank n
        (["gp", "--d-prob", "400"], "d_prob"),
        # 10^0 = 1 made the probe safety factor 0, so the first block
        # certified any residual
        (["gp", "--d-prob", "0"], "d_prob"),
    ],
)
def test_cli_float_out_of_range_exits_2_with_json(tmp_path, capsys, argv, key):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["subcommand"] == argv[0]
    assert err["error"].startswith(f"{key} must lie in ")
    assert not (tmp_path / "manifest.json").exists()


_SMALL_MIXTURE = ["mixture", "--p", "2", "--d", "3", "--K", "2", "--N", "30", "--steps", "2",
                  "--burn-in", "2", "--top-cells", "3"]


@pytest.mark.parametrize(
    "argv, key",
    [
        # 1/prior_var overflowed, and B^-1 b warned and ended in "array must
        # not contain infs or NaNs"
        (["logistic", "--N", "20", "--p", "2", "--steps", "2", "--burn-in", "1",
          "--subset-sizes", "10,20", "--prior-var", "1e-310"], "prior_var"),
        # every class's lambda draw at a cell underflowed to 0, and the class
        # probabilities warned and ended in "pvals < 0, pvals > 1 or pvals
        # contains NaNs"
        (_SMALL_MIXTURE + ["--prior-a", "1e-320"], "prior_a"),
        # the gamma total of the nu draw overflowed, and it warned and ended in
        # "Probabilities do not sum to 1"
        (_SMALL_MIXTURE + ["--prior-alpha", "1e308"], "prior_alpha"),
    ],
)
def test_cli_degenerate_prior_exits_2_naming_its_setting(tmp_path, capsys, argv, key):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path)])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = json.loads(capsys.readouterr().err.strip())
    assert err["subcommand"] == argv[0] and key in err["error"]
    assert not (tmp_path / "manifest.json").exists()


def test_cli_gp_epsilon_whose_delta_underflows_exits_2_naming_epsilon(tmp_path, capsys):
    """epsilon^2 underflowed to 0, and the sampler answered "delta must be
    positive" for a delta left at its default."""
    assert main(["gp", "--epsilon", "1e-300", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["subcommand"] == "gp"
    assert err["error"].startswith("epsilon = 1e-300 retargets delta to 0")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("seed", [2**112 - 1, 2**112])
def test_cli_gp_seed_at_the_philox_key_bound(tmp_path, capsys, seed):
    """The largest seed the Philox key holds runs; the next exits 2 with a
    record that names the seed and its bound."""
    code = main(["gp", "--seed", str(seed), "--n", "10", "--steps", "2", "--out", str(tmp_path)])
    if seed < 2**112:
        assert code == 0 and (tmp_path / "manifest.json").exists()
        return
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": f"seed must be below 2**112, got {seed}", "subcommand": "gp"}
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--delta", "1e160"],
        ["--epsilon", "1", "--sigma2-true", "1e150", "--tau2-true", "1e-150", "--second-branch", "remark"],
    ],
    ids=["given", "retargeted"],
)
def test_cli_gp_delta_past_the_float_square_keeps_rank_one(tmp_path, argv):
    """(delta / 2)^2 raised OverflowError past delta = 2.7e154.  Such a
    delta is met by one direction."""
    assert main(["gp", *argv, "--out", str(tmp_path)]) == 0
    metrics = dict(read_csv_rows(tmp_path / "gp_summary.csv")[1])
    assert float(metrics["delta"]) > 1e154 and float(metrics["mean_rank"]) == 1.0


def test_cli_largest_fstar_keeps_the_l2_bounds_finite(tmp_path):
    argv = ["compminimax", "--discrepancy", "l2", "--fstar", "1e150", "--tv0", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_csv_rows(tmp_path / "compminimax.csv")
    assert rows and all(np.isfinite(float(row[-1])) for row in rows)


@pytest.mark.parametrize(
    "argv, subcommand",
    [
        (["bounds", "--alpha", "-1e-05"], "bounds"),  # taken for an option
        (["compminimax", "--tau-min", "-inf"], "compminimax"),
        (["bounds", "--t-max", "ten"], "bounds"),
        (["bounds", "--no-such-flag", "1"], "bounds"),
        (["no-such-subcommand"], None),
        ([], None),
        # no flag that changes nothing: no thread count, no wall-time budget,
        # no seed or step budget where the subcommand has none
        *[([name, "--threads", "4"], name) for name in COMMANDS],
        *[([name, "--budget-seconds", "1"], name) for name in COMMANDS],
        (["bounds", "--seed", "5"], "bounds"),
        (["mixtimes", "--budget-steps", "3"], "mixtimes"),
        # a fixed-vocabulary string is checked even where the run never reads it
        (["gp", "--second-branch", "bogus"], "gp"),
        (["gp", "--design", "lattice"], "gp"),
        (["compminimax", "--discrepancy", "kl"], "compminimax"),
        # --forms keeps the list rule: no empty entry, names from SPEEDUP_FORMS
        (["compminimax", "--forms", ","], "compminimax"),
        (["compminimax", "--forms", "linear,cubic"], "compminimax"),
        # subset sizes are integers in [p + 1, N], checked before any chain runs
        (["logistic", "--N", "50", "--subset-sizes", "5000,50"], "logistic"),
        (["logistic", "--subset-sizes", "10.5"], "logistic"),
        (["logistic", "--p", "5", "--subset-sizes", "5"], "logistic"),
    ],
)
def test_cli_parse_error_exits_2_with_json(tmp_path, capsys, argv, subcommand):
    """A command line the CLI rejects before running gets the JSON record,
    not argparse's usage text."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert record["subcommand"] == subcommand and record["error"]
    assert not (tmp_path / "manifest.json").exists()


def test_cli_float_range_applies_to_config_files(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = nan\n")
    assert main(["bounds", "--out", str(tmp_path), "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"].startswith("alpha must lie in [1e-150, 1)")


def test_cli_diagnose_requires_trace(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path)]) == 2


def test_cli_diagnose_empty_trace_exits_2_with_json(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["diagnose", "--trace", str(empty), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "trace needs at least 2 steps"


@pytest.mark.parametrize(
    "text, error",
    [
        ("x0,x1\n", "trace needs at least 2 steps"),  # header only
        ("x0,x1\n1.0,2.0\n3.0,4.0,5.0\n", "number of columns"),  # ragged row
        ("x0,x1\n1.0,2.0\n3.0,abc\n", "could not convert"),  # non-numeric entry
        ("x0,x1\n1.0,2.0\n3.0,4.0#5\n", "could not convert"),  # "#" is no comment
    ],
)
def test_cli_diagnose_bad_trace_exits_2_with_one_json_line(tmp_path, text, error):
    """In a fresh process, so that a warning printed on the way would show
    on stderr next to the record."""
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    code = "import sys; from amcmc.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fresh_python(code, "diagnose", "--trace", str(trace), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert record["subcommand"] == "diagnose" and error in record["error"]
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_cli_options_are_settings():
    """Every option of every subcommand is --config, --out, a key of the
    subcommand's schema, or --budget-steps where the schema has ``steps``."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(COMMANDS)
    for name, (schema, _handler) in COMMANDS.items():
        options = {
            flag
            for action in subparsers.choices[name]._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        expected = {"--config", "--out"} | {"--" + key.replace("_", "-") for key in schema}
        if "steps" in schema:
            expected.add("--budget-steps")
        assert options == expected, name


def _write_trace(path, t=200, p=3):
    """A trace CSV whose last coordinate never moves."""
    samples = np.cumsum(np.sin(np.arange(t * p, dtype=float)).reshape(t, p), axis=0)
    samples[:, -1] = 1.0
    write_trace_csv(Trace(samples), path)
    return path


def test_cli_diagnose_constant_coordinate_has_no_geweke_score(tmp_path):
    trace = _write_trace(tmp_path / "trace.csv")
    assert main(["diagnose", "--trace", str(trace), "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "diagnose_coords.csv")
    assert [row[2] for row in rows] == ["0", "0", "1"]
    assert np.isfinite(float(rows[0][3])) and rows[2][3] == "nan"


@pytest.mark.parametrize(
    "fracs",
    [
        ["--first-frac", "0.6", "--last-frac", "0.6"],  # overlapping windows
        ["--first-frac", "0.01"],  # a window of two steps
    ],
)
def test_cli_diagnose_rejects_bad_windows(tmp_path, capsys, fracs):
    trace = _write_trace(tmp_path / "trace.csv")
    assert main(["diagnose", "--trace", str(trace), *fracs, "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["subcommand"] == "diagnose" and "window" in record["error"]
    assert not (tmp_path / "manifest.json").exists()


def test_cli_budget_steps_caps_chain(tmp_path):
    main(
        [
            "gp",
            "--out", str(tmp_path),
            "--seed", "5",
            "--n", "40",
            "--steps", "100",
            "--burn-in", "5",
            "--budget-steps", "12",
        ]
    )
    _, rows = read_csv_rows(tmp_path / "gp_trace.csv")
    assert len(rows) == 12


def test_cli_stochastic_reruns_identical(tmp_path):
    """Same manifest (seed + config) -> byte-identical payload CSVs."""
    args = [
        "mixture",
        "--seed", "9",
        "--N", "300",
        "--steps", "10",
        "--burn-in", "5",
        "--top-cells", "4",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    for name in ("mixture_cells.csv", "mixture_trace_exact.csv", "mixture_trace_approx.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a new interpreter that imports this
    checkout's ``amcmc``."""
    import amcmc

    env = dict(os.environ)
    root = str(Path(amcmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _digests_of_two_processes(tmp_path, args: list[str]) -> list[dict[str, str]]:
    """sha256 of every artifact of ``amcmc args``, run in two separate
    processes."""
    code = "import sys; from amcmc.cli import main; sys.exit(main(sys.argv[1:]))"
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = _fresh_python(code, *args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())})
    return digests


def test_cli_mixture_byte_identical_across_processes(tmp_path):
    """Two separate processes with the same seed and config write the same
    bytes to every artifact, the manifest included."""
    args = ["mixture", "--seed", "9", "--p", "3", "--d", "4", "--N", "3000", "--n-min", "20",
            "--steps", "20", "--burn-in", "10", "--top-cells", "6"]
    digests = _digests_of_two_processes(tmp_path, args)
    assert len(digests[0]) == 5  # three CSVs, the summary and the manifest
    assert digests[0] == digests[1]


def test_cli_gp_byte_identical_across_processes(tmp_path):
    args = ["gp", "--seed", "4", "--n", "60", "--phi-grid-size", "4", "--delta", "1e-4",
            "--steps", "40", "--burn-in", "20"]
    digests = _digests_of_two_processes(tmp_path, args)
    assert len(digests[0]) == 4  # trace, predictive, summary and the manifest
    assert digests[0] == digests[1]


def test_cli_logistic_byte_identical_across_processes(tmp_path):
    args = ["logistic", "--seed", "2", "--N", "200", "--p", "3", "--subset-sizes", "50,200",
            "--steps", "20", "--burn-in", "5", "--audit-every", "5"]
    digests = _digests_of_two_processes(tmp_path, args)
    assert len(digests[0]) == 5  # subsets, three traces and the manifest
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--alpha", "0.2", "--epsilon", "0.05"],
        ["compminimax", "--discrepancy", "l2", "--tau-max", "100", "--tau-points", "5",
         "--grid-size", "200"],
        ["mixtimes", "--alphas", "0.3,0.01", "--deltas", "0.1,1e-6"],
        ["verify-finite"],
    ],
    ids=["bounds", "compminimax", "mixtimes", "verify-finite"],
)
def test_cli_calculus_byte_identical_across_processes(tmp_path, args):
    digests = _digests_of_two_processes(tmp_path, args)
    assert len(digests[0]) == 2  # one CSV and the manifest
    assert digests[0] == digests[1]


def test_cli_diagnose_byte_identical_across_processes(tmp_path):
    trace = _write_trace(tmp_path / "trace.csv")
    digests = _digests_of_two_processes(tmp_path, ["diagnose", "--trace", str(trace)])
    assert len(digests[0]) == 3  # coordinates, summary and the manifest
    assert digests[0] == digests[1]


def test_cli_import_does_not_load_scipy_stats():
    """scipy.stats took about half of ``import amcmc.cli``; nothing on the
    import path may bring it back."""
    proc = _fresh_python("import sys, amcmc.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: Modules that only the samplers and ``diagnose`` run.
SAMPLER_MODULES = (
    "amcmc.diagnostics",
    "amcmc.gp_lowrank",
    "amcmc.mixture",
    "amcmc.pg_logistic",
)


def test_cli_import_loads_no_sampler_module():
    """``import amcmc.cli`` leaves the sampler modules to the subcommands
    that run them, loads no scipy module, and leaves the Polya-Gamma choice
    table to the import of ``pg_logistic``."""
    code = (
        "import sys, amcmc.cli, amcmc.distributions as d; "
        f"print([m for m in sys.modules if m in {SAMPLER_MODULES!r} or m.startswith('scipy')], "
        "d._pg_table.cache_info().currsize)"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0"


def test_cli_import_leaves_numpy_random_to_the_subcommands_that_draw():
    """``SeededRng`` subclasses numpy's Generator, so importing it loads
    numpy.random, which numpy 2 loads only on first use.  ``import
    amcmc.cli`` loads neither; ``amcmc.SeededRng`` imports it on first
    access."""
    code = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; import amcmc.cli; "
        "print(not lazy or 'numpy.random' not in sys.modules, 'amcmc.distributions' in sys.modules); "
        "import amcmc, amcmc.distributions as d; print(amcmc.SeededRng is d.SeededRng)"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "True"]


#: Each sampler at a size that runs in milliseconds.
SAMPLER_ARGV = {
    "logistic": ["--N", "20", "--p", "2", "--subset-sizes", "10,20", "--steps", "2", "--burn-in", "1",
                 "--audit-every", "1"],
    "mixture": ["--p", "2", "--d", "3", "--K", "2", "--N", "30", "--steps", "2", "--burn-in", "2",
                "--top-cells", "3"],
    "gp": ["--n", "5", "--q", "2", "--phi-grid-size", "2", "--steps", "2", "--burn-in", "0"],
}

#: Every subcommand at a size that runs in well under a second; diagnose
#: takes the path of a trace that ``_write_trace`` writes.
SUBCOMMAND_ARGV = {
    "bounds": ["bounds"],
    "mixtimes": ["mixtimes"],
    "compminimax-tv": ["compminimax", "--discrepancy", "tv", "--tau-points", "3", "--grid-size", "100"],
    "compminimax-l2": ["compminimax", "--discrepancy", "l2", "--tau-points", "3", "--grid-size", "100"],
    "verify-finite": ["verify-finite"],
    **{name: [name, *argv] for name, argv in SAMPLER_ARGV.items()},
    "diagnose": ["diagnose", "--trace"],
}


@pytest.mark.parametrize("name", list(SUBCOMMAND_ARGV))
def test_cli_subcommand_runs_with_scipy_blocked(tmp_path, name):
    """The program needs numpy alone: with ``import scipy`` made to fail
    before ``amcmc.cli`` is imported, every subcommand exits 0, loads no
    scipy module and writes nothing to stderr, not even a warning."""
    argv = SUBCOMMAND_ARGV[name]
    if name == "diagnose":
        argv = [*argv, str(_write_trace(tmp_path / "trace.csv"))]
    code = (
        "import sys; sys.modules['scipy'] = None; from amcmc.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod is not None))"
    )
    proc = _fresh_python(code, *argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    assert proc.stderr == ""


def test_cli_hooks_set_before_main_intercept_every_sampler(tmp_path):
    """The benchmark's pattern: read ``cli.pg``, ``cli.mix`` and ``cli.gp``
    before ``main`` runs, replace a function on each, and expect every
    subcommand to call the replacement."""
    code = f"""
import json, sys
import amcmc.cli as cli
calls = {{}}
def hook(owner, attr):
    original = getattr(owner, attr)
    def hooked(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return original(*args, **kwargs)
    setattr(owner, attr, hooked)
hook(cli.pg, "run_chain")
hook(cli.mix, "gibbs_step_approx")
hook(cli.gp.GPSampler, "run")
codes = [cli.main([name, *argv, "--out", sys.argv[1] + "/" + name]) for name, argv in {SAMPLER_ARGV!r}.items()]
print(json.dumps({{"codes": codes, "calls": calls}}))
"""
    proc = _fresh_python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["codes"] == [0, 0, 0]
    # the exact logistic chain and one per subset size, every sweep of the
    # approximate mixture chain, and the one gp chain
    assert rec["calls"] == {"run_chain": 3, "gibbs_step_approx": 4, "run": 1}


# ---------------------------------------------------------------------------
# the CLI contract under arbitrary floats
# ---------------------------------------------------------------------------

ANY_FLOAT = st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(1.0, 1e6))
FLOAT_LIST = st.lists(ANY_FLOAT, min_size=1, max_size=3)
#: Every power of ten a double holds, subnormals included.
DECADES = st.integers(-320, 308).map(lambda e: float(f"1e{e}"))


def _setting(key: str):
    """A sampler's float setting: any float, any power of ten, or a value
    inside its interval, where hypothesis favours the ends."""
    interval = INTERVALS[key]
    low, high = (float(v) for v in interval[1:-1].split(","))
    inside = st.floats(low, high, exclude_min=interval[0] == "(", exclude_max=interval[-1] == ")")
    return ANY_FLOAT | DECADES | inside


FUZZED = {
    "bounds": {
        "alpha": ANY_FLOAT,
        "epsilon": ANY_FLOAT,
        "tv0": ANY_FLOAT,
        "tv0_eps": ANY_FLOAT,
        "fstar": ANY_FLOAT,
        "t_max": st.integers(-1, 10**9),
        "t_points": st.integers(-1, 50),
    },
    "mixtimes": {"alphas": FLOAT_LIST, "deltas": FLOAT_LIST},
    "compminimax": {
        "discrepancy": st.sampled_from(["tv", "l2"]),
        "alpha": ANY_FLOAT,
        "tau_min": ANY_FLOAT,
        "tau_max": ANY_FLOAT,
        "tau_points": st.integers(-1, 3),
        "tv0": ANY_FLOAT,
        "tv0_eps": ANY_FLOAT,
        "fstar": ANY_FLOAT,
        "grid_size": st.integers(-1, 50),
    },
    "gp": {
        "design": st.sampled_from(["grid", "normal"]),
        "phi_true": _setting("phi_true"),
        "sigma2_true": _setting("sigma2_true"),
        "tau2_true": _setting("tau2_true"),
        "delta": _setting("delta"),
        "d_prob": st.integers(-1, 400),
        "epsilon": _setting("epsilon"),
        "second_branch": st.sampled_from(["appendix", "remark"]),
    },
    "logistic": {
        "subset_sizes": FLOAT_LIST | st.lists(st.integers(-1, 25).map(float), min_size=1, max_size=3),
        "prior_var": _setting("prior_var"),
    },
    "mixture": {
        "n_min": _setting("n_min"),
        "prior_alpha": _setting("prior_alpha"),
        "prior_a": _setting("prior_a"),
        "data_ramp": st.sampled_from(["true", "false"]),
    },
}
#: The samplers' integer settings, pinned small so each fuzzed run takes
#: milliseconds.
TINY = {
    "gp": ["--n", "5", "--q", "2", "--phi-grid-size", "2", "--steps", "2", "--burn-in", "0"],
    "logistic": ["--N", "20", "--p", "2", "--steps", "2", "--burn-in", "1", "--audit-every", "1"],
    "mixture": ["--p", "2", "--d", "3", "--K", "2", "--N", "30", "--steps", "2", "--burn-in", "2",
                "--top-cells", "3"],
}


def _argv(name: str, values: dict, joined: bool) -> list[str]:
    """``--key=value`` pairs if ``joined``, else ``--key value`` token pairs,
    where argparse takes a value such as '-1e-05' for an option."""
    argv = [name]
    for key, value in values.items():
        if value is not None:
            text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
            flag = f"--{key.replace('_', '-')}"
            argv.extend([f"{flag}={text}"] if joined else [flag, text])
    return argv


@pytest.mark.parametrize("name", sorted(FUZZED))
def test_cli_contract_holds_for_any_floats(name):
    """Every exit is 0, 1 or 2, every exit 2 leaves a JSON record on
    stderr, and no input raises out of main."""
    keys = FUZZED[name]

    @given(st.fixed_dictionaries({k: st.none() | v for k, v in keys.items()}))
    # a sampler run goes deep only when all its settings are in range
    @settings(max_examples=120 if name in TINY else 60, deadline=None)
    def run(values):
        for joined in (True, False):
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
                code = main(_argv(name, values, joined) + TINY.get(name, []) + ["--out", out])
            assert code in (0, 1, 2)
            if code == 2:
                record = json.loads(err.getvalue().strip().splitlines()[-1])
                assert record["subcommand"] == name and record["error"]

    run()
