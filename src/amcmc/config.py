"""Flat key=value experiment configuration, CSV emission, and run
manifests.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Command-line flags override file values as raw strings, and the
merged strings are typed once, by the subcommand's schema.  Every run
writes a ``manifest.json`` recording the resolved config, its hash, the
seed, library versions, the CPU count and the BLAS thread settings, so a
run can be reproduced byte-for-byte from its manifest on the same thread
settings (timings never enter the CSV payloads).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__

__all__ = [
    "parse_config_file",
    "resolve_config",
    "config_hash",
    "write_manifest",
    "write_csv",
    "read_csv_rows",
]

#: Environment variables that set the BLAS thread count.  The bytes of a
#: factorisation can depend on it, so the manifest records each (None when
#: unset).
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_scalar(raw: str, typ: type) -> Any:
    if typ is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ is list:
        return [float(v) for v in raw.split(",")]  # an empty entry raises
    return typ(raw)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Raw key -> string-value pairs from a flat config file."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def resolve_config(
    schema: dict[str, tuple[type, Any]], values: dict[str, str]
) -> dict[str, Any]:
    """Defaults overlaid with ``values``, raw strings typed by the schema;
    unknown keys are rejected.

    ``schema`` maps key -> (type, default).  List-valued keys use type
    ``list`` with comma-separated float entries, none of them empty.
    """
    unknown = set(values) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out: dict[str, Any] = {}
    for key, (typ, default) in schema.items():
        try:
            out[key] = _parse_scalar(values[key], typ) if key in values else default
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return out


def config_hash(config: dict[str, Any]) -> str:
    payload = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def write_manifest(out_dir: str | Path, subcommand: str, config: dict[str, Any]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "config": {k: str(v) for k, v in sorted(config.items())},
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "versions": {
            "amcmc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARIABLES},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _fmt(v: Any) -> str:
    # np.float64 subclasses float, so coerce before the plain-float branch
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path: str | Path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def read_csv_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """The header row of a CSV file (empty for an empty file) and each
    nonblank row after it."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        return next(r, []), [row for row in r if row]
