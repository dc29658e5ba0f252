"""Config plumbing and the CLI subcommands end to end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amcmc.cli import main
from amcmc.config import (
    config_hash,
    parse_config_file,
    read_csv_rows,
    resolve_config,
    write_csv,
    write_manifest,
)

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


def test_resolve_config_precedence():
    got = resolve_config(SCHEMA, {"alpha": "0.5", "flags": "1,2.5"}, {"t": 9})
    assert got == {"alpha": 0.5, "t": 9, "flags": [1.0, 2.5], "on": False}


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        resolve_config(SCHEMA, {"blah": "1"}, {})


def test_resolve_config_bools():
    assert resolve_config(SCHEMA, {"on": "yes"}, {})["on"] is True
    with pytest.raises(ValueError):
        resolve_config(SCHEMA, {"on": "maybe"}, {})


def test_config_hash_stable_and_order_independent():
    h1 = config_hash({"a": 1, "b": 2.0})
    h2 = config_hash({"b": 2.0, "a": 1})
    assert h1 == h2 and len(h1) == 64
    assert h1 != config_hash({"a": 1, "b": 2.5})


def test_write_manifest(tmp_path):
    path = write_manifest(tmp_path, "bounds", {"alpha": 0.1, "seed": 3})
    data = json.loads(path.read_text())
    assert data["subcommand"] == "bounds"
    assert data["seed"] == 3
    assert "numpy" in data["versions"]


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


def test_cli_compminimax_threads_deterministic(tmp_path):
    args = [
        "compminimax",
        "--alpha", "0.1",
        "--tau-max", "100",
        "--tau-points", "5",
        "--grid-size", "200",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--threads", "4"]) == 0
    assert (a / "compminimax.csv").read_bytes() == (b / "compminimax.csv").read_bytes()


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


def test_cli_diagnose_requires_trace(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path)]) == 2


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


def test_cli_mixture_byte_identical_across_processes(tmp_path):
    """Two separate processes with the same seed and config write the same
    bytes to every artifact, the manifest included."""
    args = ["mixture", "--seed", "9", "--p", "3", "--d", "4", "--N", "3000", "--n-min", "20",
            "--steps", "20", "--burn-in", "10", "--top-cells", "6"]
    code = "import sys; from amcmc.cli import main; sys.exit(main(sys.argv[1:]))"
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = _fresh_python(code, *args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())})
    assert len(digests[0]) == 5  # three CSVs, the summary and the manifest
    assert digests[0] == digests[1]


def test_cli_import_does_not_load_scipy_stats():
    """scipy.stats took about half of ``import amcmc.cli``; nothing on the
    import path may bring it back."""
    proc = _fresh_python("import sys, amcmc.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
