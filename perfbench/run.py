"""Benchmark of ``amcmc``: exact against approximate samplers and the error
calculus, end to end and layer by layer.

    python3 perfbench/run.py --workload {logistic,mixture,gp,calculus} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from
``./src``.  The run repeats whole rounds of the workload, each in a fresh
single-threaded process (``workloads.py``), until ``--seconds`` have
passed.  It reports the median over rounds of wall time, set-up and peak
RSS, and each sweep rate over all the run's chains of that kind.  With
``--trace 0`` every round is untraced and the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
prints the per-layer metrics of the traced ones, plus the tracing
overhead and the realised speedups of the untraced ones.  The metric names
and units are those of ``BENCHMARK.json``.

The first round also checks the outputs (``checks.py``); every later
round must write byte-identical artifacts.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when an operation failed.  Per-run results
and spans are kept under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import PLANS, RATE_CHAINS

HERE = Path(__file__).resolve().parent
#: A run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 165.0
SPEEDUP = {"logistic": "pg_logistic.speedup", "mixture": "mixture.speedup", "gp": "gp_lowrank.speedup"}


def child_env(src: Path) -> dict[str, str]:
    """One BLAS thread: on this class of 2-vCPU machine the default pool of
    two threads made one process ten times slower than its neighbours.
    It also selects the numpy kernels of ``amcmc._kernels``, so the measured
    code does not depend on whether numba is installed and no chain pays for
    JIT compiling; each round records the backend as ``info.has_numba``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["AMCMC_DISABLE_NUMBA"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def round_dir_of(run_dir: Path, k: int, traced: bool) -> Path:
    return run_dir / f"round{k:02d}{'-traced' if traced else ''}"


def run_round(args, k: int, traced: bool, run_dir: Path, env, deadline: float) -> dict:
    round_dir = round_dir_of(run_dir, k, traced)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed),
        str(round_dir), str(int(traced)), str(int(k == 0)),
    ]
    spawned = time.monotonic()
    why = ""
    # own process group, so a timeout also ends the subcommands a calculus round started
    proc = subprocess.Popen(cmd + [repr(spawned)], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - spawned, 5.0))
        if proc.returncode != 0:
            why = f"round process exited {proc.returncode}: {err.decode(errors='replace')[-800:]}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        why = "round process timed out"
    result_path = round_dir / "result.json"
    if why or not result_path.is_file():
        ops = {name: {"ok": False, "why": why or "no result"} for name in PLANS[args.workload]}
        return {"round": k, "traced": traced, "ops": ops, "e2e": {}, "chains": {}, "info": {}, "hashes": None}
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["round"] = k
    res["seconds"] = time.monotonic() - spawned
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(values: list[float], unit: str) -> dict:
    if not values:
        return {"value": 0.0, "unit": unit, "n": 0}
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def chain_rate(rounds: list[dict], keys: list[str]) -> float:
    """Sweeps over seconds of the named chains, summed over ``rounds``."""
    chains = [r["chains"][k] for r in rounds for k in keys]
    return sum(c["sweeps"] for c in chains) / sum(c["seconds"] for c in chains)


def rate_summary(rounds: list[dict], keys: list[str], unit: str) -> dict:
    """The run's rate over all its chains (whole chains, pooled), with the
    quartiles of the per-round rates beside it."""
    out = summarise([chain_rate([r], keys) for r in rounds], unit)
    if rounds:
        out["value"] = chain_rate(rounds, keys)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "amcmc" / "__init__.py").is_file():
        print(f"perfbench: no amcmc package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    # compile once so no round pays for byte-compiling
    compileall.compile_dir(str(src / "amcmc"), quiet=1)
    compileall.compile_dir(str(HERE), maxlevels=0, quiet=1)
    run_dir = HERE / "runs" / f"{args.workload}-t{args.trace}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(src)

    kinds = (False, True) if args.trace else (False,)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds: list[dict] = []
    while True:
        t_group = time.monotonic()
        for traced in kinds:
            rounds.append(run_round(args, len(rounds), traced, run_dir, env, deadline))
        # stop at the round boundary nearest to --seconds
        now = time.monotonic()
        if now - start + (now - t_group) / 2 >= args.seconds or now + (now - t_group) > deadline:
            break
        if any(not op["ok"] for r in rounds for op in r["ops"].values()):
            break

    # every round must reproduce the first round's artifacts byte for byte
    ref = rounds[0]["hashes"]
    for r in rounds[1:]:
        if r["hashes"] is not None and r["hashes"] != ref:
            for op in r["ops"].values():
                if op["ok"]:
                    op["ok"], op["why"] = False, "artifacts differ from round 0's"
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(r["round"], name, op.get("why", "")) for r in rounds for name, op in r["ops"].items() if not op["ok"]]

    plain = [r for r in rounds if not r["traced"] and r["e2e"]]
    e2e = {m["name"]: summarise([v for r in plain for v in r["e2e"].get(m["name"], [])], m["unit"])
           for m in spec["end_to_end"] if m["name"] not in ("exact_sweeps_per_s", "approx_sweeps_per_s")}
    for name, keys in zip(("exact_sweeps_per_s", "approx_sweeps_per_s"), RATE_CHAINS[args.workload]):
        e2e[name] = rate_summary(plain, keys, "1/s")
    if args.trace:
        samples: dict[str, list[float]] = {}
        for r in rounds:
            spans = round_dir_of(run_dir, r["round"], True) / "spans.json"
            if r["traced"] and spans.is_file():
                for name, vals in tracing.layer_samples(tracing.load(spans)).items():
                    samples.setdefault(name, []).extend(vals)
        traced_wall = [v for r in rounds if r["traced"] for v in r["e2e"].get("wall_s", [])]
        if traced_wall and e2e["wall_s"]["n"]:
            samples["trace.overhead_s"] = [statistics.median(traced_wall) - e2e["wall_s"]["value"]]
        if args.workload in SPEEDUP and plain:
            samples[SPEEDUP[args.workload]] = [
                e2e["approx_sweeps_per_s"]["value"] / e2e["exact_sweeps_per_s"]["value"]
            ]
        metrics = {m["name"]: summarise(samples.get(m["name"], []), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    # ESS per second of each chain: ESS of the checked round over the median chain time
    ess_per_s = {}
    for key, value in rounds[0]["info"].get("ess", {}).items():
        secs = [r["chains"][key]["seconds"] for r in plain if key in r["chains"]]
        if secs:
            ess_per_s[key] = value / statistics.median(secs)

    for r in rounds:  # keep the artifacts of rounds that failed
        if all(op["ok"] for op in r["ops"].values()):
            shutil.rmtree(round_dir_of(run_dir, r["round"], r["traced"]) / "out", ignore_errors=True)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "metrics": metrics, "ess_per_s": ess_per_s,
                   "info": rounds[0]["info"], "rounds": rounds, "summary": summary}, fh, indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds "
          f"in {time.monotonic() - start:.1f} s; results in {run_dir.relative_to(root)}")
    for name, m in metrics.items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if m["n"] > 1 else ""
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}{spread}")
    for key, value in ess_per_s.items():
        print(f"ess_per_s.{key:30s} {value:>14.6g} 1/s")
    for k, name, why in failures:
        print(f"FAILED round {k} {name}: {why}")
    print(json.dumps(summary))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
