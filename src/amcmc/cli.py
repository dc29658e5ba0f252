"""Command-line front end.

Subcommands: bounds, mixtimes, compminimax, verify-finite, mixture,
logistic, gp, diagnose.  Every run writes CSV artifacts plus a
manifest.json into --out; payloads are byte-reproducible for a fixed seed
and step budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import compminimax as cmx
from . import diagnostics as diag
from . import finite_chain as fc
from . import gp_lowrank as gp
from . import mixture as mix
from . import pg_logistic as pg
from .config import resolve_config, parse_config_file, write_csv, write_manifest
from .distributions import SeededRng

# ---------------------------------------------------------------------------
# subcommand schemas: key -> (type, default)
# ---------------------------------------------------------------------------

SCHEMAS = {
    "bounds": {
        "alpha": (float, 0.1),
        "epsilon": (float, 0.01),
        "tv0": (float, 1.0),
        "tv0_eps": (float, 1.0),
        "fstar": (float, 1.0),
        "t_max": (int, 10**5),
        "t_points": (int, 50),
    },
    "mixtimes": {
        "alphas": (list, [0.1, 1e-4]),
        "deltas": (list, [1e-2, 1e-4]),
    },
    "compminimax": {
        "discrepancy": (str, "tv"),
        "alpha": (float, 0.1),
        "forms": (str, "logarithmic,linear,quadratic,exponential"),
        "tau_min": (float, 1.0),
        "tau_max": (float, 1e5),
        "tau_points": (int, 30),
        "tv0": (float, 1.0),
        "tv0_eps": (float, 1.0),
        "fstar": (float, 1.0),
        "grid_size": (int, 2000),
    },
    "verify-finite": {},
    "mixture": {
        "seed": (int, 0),
        "p": (int, 2),
        "d": (int, 10),
        "K": (int, 3),
        "N": (int, 20000),
        "n_min": (float, 50.0),
        "steps": (int, 200),
        "burn_in": (int, 100),
        "top_cells": (int, 20),
        "prior_alpha": (float, 1.0),
        "prior_a": (float, 1.0),
        "data_ramp": (bool, True),
    },
    "logistic": {
        "seed": (int, 0),
        "N": (int, 2000),
        "p": (int, 5),
        "subset_sizes": (list, [200.0, 1000.0, 2000.0]),
        "steps": (int, 1000),
        "burn_in": (int, 200),
        "audit_every": (int, 10),
        "prior_var": (float, 100.0),
    },
    "gp": {
        "seed": (int, 0),
        "n": (int, 200),
        "q": (int, 1),
        "design": (str, "grid"),
        "phi_true": (float, 20.0),
        "sigma2_true": (float, 0.25),
        "tau2_true": (float, 1.0),
        "delta": (float, 0.001),
        "d_prob": (int, 3),
        "phi_grid_size": (int, 8),
        "steps": (int, 500),
        "burn_in": (int, 200),
        "epsilon": (float, 0.0),  # >0: retarget delta via delta_for_epsilon
        "second_branch": (str, "appendix"),
    },
    "diagnose": {
        "trace": (str, ""),
        "k_max": (int, 20),
        "first_frac": (float, 0.1),
        "last_frac": (float, 0.5),
    },
}


#: Smallest accepted value of each integer setting.  Checked after the config
#: is resolved and --budget-steps applied, so an out-of-range value exits 2
#: with a JSON record instead of failing inside a subcommand.  Every trace
#: needs two steps.
MINIMUMS = {
    "t_max": 1,
    "t_points": 1,
    "tau_points": 1,
    "p": 1,
    "d": 1,
    "K": 1,
    "N": 1,
    "n": 2,
    "q": 1,
    "steps": 2,
    "burn_in": 0,
    "top_cells": 1,
    "audit_every": 0,
    "d_prob": 0,
    "phi_grid_size": 1,
    "k_max": 1,
}


def check_ranges(cfg: dict) -> None:
    for key, low in MINIMUMS.items():
        if key in cfg and cfg[key] < low:
            raise ValueError(f"{key} must be >= {low}, got {cfg[key]}")


def _linspace_int(t_max: int, points: int) -> list[int]:
    ts = np.unique(np.geomspace(1, t_max, points).astype(np.int64))
    return [int(t) for t in ts]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_bounds(cfg: dict, out: Path) -> int:
    params = bnd.ErgodicityParams(cfg["alpha"], cfg["epsilon"])
    rows = []
    for t in _linspace_int(cfg["t_max"], cfg["t_points"]):
        inputs = bnd.BoundInputs(t=t, tv0=cfg["tv0"], fstar=cfg["fstar"])
        rows.append(
            (
                t,
                bnd.tv_bound_exact(cfg["alpha"], inputs),
                bnd.tv_bound_approx(params, t, cfg["tv0_eps"]),
                bnd.l2_bound_exact(cfg["alpha"], inputs),
                bnd.l2_bound_approx(params, t, cfg["tv0_eps"], cfg["fstar"]),
                bnd.stationary_bias_bound(params),
            )
        )
    write_csv(
        out / "bounds.csv",
        ("t", "tv_exact", "tv_approx", "l2_exact", "l2_approx", "stationary_bias"),
        rows,
    )
    return 0


def cmd_mixtimes(cfg: dict, out: Path) -> int:
    rows = []
    for alpha in cfg["alphas"]:
        for delta in cfg["deltas"]:
            m = bnd.mixing_time_bound(alpha, delta)
            rows.append((alpha, delta, m, math.ceil(m)))
    write_csv(out / "mixtimes.csv", ("alpha", "delta", "mixing_time", "ceiling"), rows)
    return 0


def cmd_compminimax(cfg: dict, out: Path, threads: int = 1) -> int:
    template = cmx.CompminimaxProblem(
        discrepancy=cfg["discrepancy"],
        alpha=cfg["alpha"],
        tau_max=max(cfg["tau_min"], 1.0),
        tv0=cfg["tv0"],
        tv0_eps=cfg["tv0_eps"],
        fstar=cfg["fstar"],
        grid_size=cfg["grid_size"],
    )
    tau_grid = list(
        np.geomspace(max(cfg["tau_min"], 1.0), cfg["tau_max"], cfg["tau_points"])
    )
    forms = [f.strip() for f in cfg["forms"].split(",") if f.strip()]
    rows = []
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        futures = [
            pool.submit(
                cmx.curve_epsilon_vs_budget, template, cmx.SpeedupFn(f, cfg["alpha"]), tau_grid
            )
            for f in forms
        ]
        for fut in futures:
            rows.extend(fut.result())
    write_csv(out / "compminimax.csv", cmx.CURVE_CSV_HEADER, rows)
    return 0


def finite_chain_checks() -> list[tuple[str, bool, float]]:
    """The sharpness suite: every finite-chain-lab invariant as a check row
    (name, passed, worst error)."""
    checks: list[tuple[str, bool, float]] = []

    worst = 0.0
    for a in (0.05, 0.25, 0.45):
        P = fc.two_state_symmetric(a)
        alpha = 2.0 * a
        for gamma in (0.0, 0.2):
            nu = fc.FiniteMeasure(np.array([gamma, 1.0 - gamma]))
            tv0 = 0.5 - gamma
            for t in range(1, 201):
                lhs = fc.cesaro_tv(nu, P, t)
                rhs = bnd.tv_bound_exact(alpha, bnd.BoundInputs(t=t, tv0=tv0))
                worst = max(worst, abs(lhs - rhs))
    checks.append(("tv_sharpness", worst <= 1e-12, worst))

    worst = 0.0
    a = 0.25
    pi = fc.invariant_measure(fc.two_state_symmetric(a)).weights
    for eps in (0.01, 0.05, 0.1):
        pi_eps = fc.invariant_measure(fc.two_state_perturbed(a, eps)).weights
        gap = 0.5 * np.abs(pi - pi_eps).sum()
        worst = max(worst, abs(gap - eps / (2.0 * a)))
    checks.append(("stationary_gap", worst <= 1e-12, worst))

    worst = 0.0
    for eps in (0.01, 0.05, 0.1):
        Ps = fc.two_state_shifted(a, eps)
        alpha_eps = fc.doeblin_alpha(Ps)
        worst = max(worst, abs(alpha_eps - (2.0 * a - 2.0 * eps)))
        nu = fc.FiniteMeasure(np.array([0.0, 1.0]))
        for t in (1, 5, 25, 100):
            lhs = fc.cesaro_tv(nu, Ps, t)
            params = bnd.ErgodicityParams(2.0 * a, eps)
            rhs = bnd.tv_bound_approx(params, t, 0.5) - eps / (2.0 * a)
            worst = max(worst, abs(lhs - rhs))
    checks.append(("shifted_kernel", worst <= 1e-12, worst))

    # covariance bound: equality on the symmetric chain, inequality on
    # random kernels
    worst = 0.0
    P = fc.two_state_symmetric(a)
    f = np.array([-1.0, 1.0])
    for k in range(0, 20):
        cov = fc.exact_autocovariance(P, f, k)
        worst = max(worst, abs(cov - (1.0 - 2.0 * a) ** k))
    checks.append(("covariance_equality", worst <= 1e-12, worst))

    rng = SeededRng(20240817)
    ok = True
    margin = 0.0
    for _ in range(100):
        K = 3 + int(rng.uniform() * 3)
        M = rng.uniform(size=(K, K)) + 0.05
        M /= M.sum(axis=1, keepdims=True)
        P = fc.FiniteKernel(M)
        alpha = fc.doeblin_alpha(P)
        f = rng.uniform(size=K)
        fstar = 0.5 * (f.max() - f.min())
        for k in range(0, 6):
            cov = fc.exact_autocovariance(P, f, k)
            bound = (1.0 - alpha) ** k * fstar * fstar
            margin = max(margin, cov - bound)
            ok = ok and cov <= bound + 1e-12
    checks.append(("covariance_inequality", ok, margin))
    return checks


def cmd_verify_finite(cfg: dict, out: Path) -> int:
    checks = finite_chain_checks()
    write_csv(
        out / "verify_finite.csv",
        ("check", "passed", "worst_error"),
        [(name, int(passed), err) for name, passed, err in checks],
    )
    return 0 if all(passed for _, passed, _ in checks) else 1


def run_mixture_experiment(cfg: dict) -> dict:
    """Simulate a sparse table, run the exact chain and the approximate
    chain, and track pi on the most-occupied cells."""
    rng_sim = SeededRng(cfg["seed"], stream=0)
    priors = mix.MixturePriors(cfg["prior_alpha"], cfg["prior_a"])
    data, _, _, true_pi = mix.simulate_contingency(
        rng_sim, cfg["p"], cfg["d"], cfg["K"], cfg["N"], priors
    )
    top = sorted(data.cells, key=lambda c: (-data.cells[c], c))[: cfg["top_cells"]]
    top_index = np.array(top, dtype=np.int64).reshape(len(top), cfg["p"])
    variables = np.arange(cfg["p"])

    def run(n_min: float, stream: int) -> np.ndarray:
        rng = SeededRng(cfg["seed"], stream=stream)
        state = mix.init_state(rng, data, priors)
        rows = np.empty((cfg["steps"], len(top)))
        ramp = cfg["burn_in"] if cfg["data_ramp"] else 0
        for i in range(cfg["burn_in"] + cfg["steps"]):
            if ramp and i < ramp:
                # grow the table linearly during burn-in to dodge bad modes
                frac = (i // max(ramp // 10, 1) + 1) / 10.0
                sub_cells = {}
                budget = int(frac * data.total)
                for c in data.ordered_cells():
                    if budget <= 0:
                        break
                    take = min(data.cells[c], budget)
                    sub_cells[c] = take
                    budget -= take
                cur = mix.ContingencyData(sub_cells, data.p, data.d, data.K)
            else:
                cur = data
            if math.isinf(n_min):
                state = mix.gibbs_step_exact(rng, state, cur, priors)
            else:
                state = mix.gibbs_step_approx(rng, state, cur, priors, n_min)
            if i >= cfg["burn_in"]:
                # pi on the top cells: nu times lambda^(j) for j = 0, ..., p-1
                # in turn, the order of cell_probability, then summed over h
                factors = state.lam[variables, :, top_index]  # (top, p, K)
                nu = np.broadcast_to(state.nu, (len(top), 1, len(state.nu)))
                rows[i - cfg["burn_in"]] = np.concatenate([nu, factors], axis=1).prod(axis=1).sum(axis=1)
        return rows

    exact = run(math.inf, stream=1)
    approx = run(cfg["n_min"], stream=1)  # same stream: seed-matched chains
    w1 = diag.w1_kernel_distance(exact, approx)
    return {
        "data": data,
        "top": top,
        "true_pi": true_pi,
        "exact": exact,
        "approx": approx,
        "w1": w1,
    }


def cmd_mixture(cfg: dict, out: Path) -> int:
    res = run_mixture_experiment(cfg)
    top, true_pi = res["top"], res["true_pi"]
    write_csv(
        out / "mixture_cells.csv",
        ("cell", "count", "true_pi", "exact_mean", "approx_mean"),
        [
            (
                "|".join(map(str, c)),
                res["data"].cells[c],
                true_pi[c],
                res["exact"][:, i].mean(),
                res["approx"][:, i].mean(),
            )
            for i, c in enumerate(top)
        ],
    )
    diag.write_trace_csv(
        diag.Trace(res["exact"], seed=cfg["seed"]),
        out / "mixture_trace_exact.csv",
        names=["|".join(map(str, c)) for c in top],
    )
    diag.write_trace_csv(
        diag.Trace(res["approx"], seed=cfg["seed"]),
        out / "mixture_trace_approx.csv",
        names=["|".join(map(str, c)) for c in top],
    )
    write_csv(out / "mixture_summary.csv", ("metric", "value"), [("w1_exact_vs_approx", res["w1"])])
    return 0


def run_logistic_experiment(cfg: dict) -> dict:
    rng_sim = SeededRng(cfg["seed"], stream=0)
    data, beta_true = pg.simulate_logistic(rng_sim, cfg["N"], cfg["p"])
    b = np.zeros(data.p)
    B = cfg["prior_var"] * np.eye(data.p)

    exact = pg.run_chain(
        SeededRng(cfg["seed"], stream=1),
        data,
        b,
        B,
        cfg["steps"],
        cfg["burn_in"],
    )
    exact_mean = exact.trace.mean(axis=0)

    per_size = []
    for k, size in enumerate(int(s) for s in cfg["subset_sizes"]):
        policy = pg.SubsetPolicy(mode="fixed", size=size)
        res = pg.run_chain(
            SeededRng(cfg["seed"], stream=1),
            data,
            b,
            B,
            cfg["steps"],
            cfg["burn_in"],
            policy=policy,
            audit_every=cfg["audit_every"],
            audit_rng=SeededRng(cfg["seed"], stream=100 + k),
        )
        rmse = float(np.sqrt(np.mean((res.trace.mean(axis=0) - exact_mean) ** 2)))
        w1 = diag.w1_kernel_distance(exact.trace, res.trace)
        med = float(np.median(res.audit_tv)) if len(res.audit_tv) else float("nan")
        per_size.append(
            {"size": size, "rmse": rmse, "w1": w1, "audit_median": med, "result": res}
        )
    return {
        "data": data,
        "beta_true": beta_true,
        "exact": exact,
        "exact_mean": exact_mean,
        "per_size": per_size,
    }


def cmd_logistic(cfg: dict, out: Path) -> int:
    res = run_logistic_experiment(cfg)
    write_csv(
        out / "logistic_subsets.csv",
        ("subset_size", "rmse_vs_exact", "w1_vs_exact", "audit_tv_median"),
        [(d["size"], d["rmse"], d["w1"], d["audit_median"]) for d in res["per_size"]],
    )
    diag.write_trace_csv(
        diag.Trace(res["exact"].trace, seed=cfg["seed"]), out / "logistic_trace_exact.csv"
    )
    for d in res["per_size"]:
        diag.write_trace_csv(
            diag.Trace(d["result"].trace, seed=cfg["seed"]),
            out / f"logistic_trace_v{d['size']}.csv",
        )
    return 0


def cmd_gp(cfg: dict, out: Path) -> int:
    rng_sim = SeededRng(cfg["seed"], stream=0)
    X, f_true, y = gp.simulate_gp(
        rng_sim,
        cfg["n"],
        cfg["q"],
        cfg["phi_true"],
        cfg["sigma2_true"],
        cfg["tau2_true"],
        design=cfg["design"],
    )
    lo, hi = cfg["phi_true"] / 4.0, cfg["phi_true"] * 4.0
    phi_grid = np.geomspace(lo, hi, cfg["phi_grid_size"])
    model = gp.GPModel(X, y, phi_grid)

    delta = cfg["delta"]
    if cfg["epsilon"] > 0.0:
        # pilot factor at the prior-center scales to size lambda_max
        pilot = gp.randomized_partial_eig(
            SeededRng(cfg["seed"], stream=3),
            gp.se_covariance(X, float(np.median(phi_grid))),
            cfg["delta"],
            cfg["d_prob"],
        )
        delta = gp.delta_for_epsilon(
            cfg["sigma2_true"],
            cfg["tau2_true"],
            cfg["epsilon"],
            cfg["n"],
            float(pilot.lam[0]),
            second_branch=cfg["second_branch"],
        )

    sampler = gp.GPSampler(
        SeededRng(cfg["seed"], stream=1), model, delta, cfg["d_prob"]
    )
    run = sampler.run(
        SeededRng(cfg["seed"], stream=2),
        cfg["steps"],
        cfg["burn_in"],
        collect_predictive=True,
    )
    trace = run["trace"]
    diag.write_trace_csv(
        diag.Trace(trace, seed=cfg["seed"]),
        out / "gp_trace.csv",
        names=["sigma2", "tau2", "phi_index"],
    )
    pred = run["pred_running"][-1]
    write_csv(
        out / "gp_predictive.csv",
        ("i", "f_true", "pred_mean", "y"),
        [(i, f_true[i], pred[i], y[i]) for i in range(cfg["n"])],
    )
    write_csv(
        out / "gp_summary.csv",
        ("metric", "value"),
        [
            ("delta", delta),
            ("mean_rank", sampler.mean_rank),
            ("accept_rate", run["accept_rate"]),
            ("sigma2_median", float(np.median(trace[:, 0]))),
            ("tau2_median", float(np.median(trace[:, 1]))),
            ("pred_rmse_vs_f", float(np.sqrt(np.mean((pred - f_true) ** 2)))),
        ],
    )
    return 0


def cmd_diagnose(cfg: dict, out: Path) -> int:
    if not cfg["trace"]:
        raise ValueError("diagnose requires a trace CSV (key 'trace')")
    trace = diag.read_trace_csv(cfg["trace"])
    ess, flags = diag.effective_sample_size(trace)
    # a coordinate stuck at one value inside a window (e.g. a grid parameter
    # that never moved) has no Geweke score; report NaN instead of failing
    z = np.full(trace.p, float("nan"))
    for j in range(trace.p):
        try:
            z[j] = diag.geweke_z(
                diag.Trace(trace.samples[:, j]), cfg["first_frac"], cfg["last_frac"]
            )[0]
        except ValueError:
            pass
    report = diag.phi_max(trace, min(cfg["k_max"], max(trace.t // 10, 1)))
    rows = [
        (j, ess[j], int(flags[j]), z[j]) for j in range(trace.p)
    ]
    write_csv(out / "diagnose_coords.csv", ("coord", "ess", "constant_flag", "geweke_z"), rows)
    write_csv(
        out / "diagnose_summary.csv",
        ("metric", "value"),
        [
            ("phi_max", "" if report.phi_max is None else report.phi_max),
            ("phi_threshold", report.threshold),
            ("n_retained_cells", len(report.retained)),
        ],
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcmc",
        description="Approximate-MCMC error bounds, samplers, and diagnostics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--budget-steps", type=int, default=None)
        p.add_argument("--budget-seconds", type=float, default=None)
        for key, (typ, _default) in SCHEMAS[name].items():
            if key == "seed":
                continue
            flag = "--" + key.replace("_", "-")
            if typ is list:
                p.add_argument(flag, type=lambda s: [float(v) for v in s.split(",")])
            elif typ is bool:
                p.add_argument(flag, type=lambda s: s.lower() in ("1", "true", "yes"))
            else:
                p.add_argument(flag, type=typ)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    started = time.monotonic()
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {
            key: getattr(args, key, None) for key in SCHEMAS[name] if key != "seed"
        }
        if "seed" in SCHEMAS[name]:
            overrides["seed"] = args.seed
        cfg = resolve_config(SCHEMAS[name], file_values, overrides)
        if args.budget_steps is not None and "steps" in cfg:
            cfg["steps"] = min(cfg["steps"], args.budget_steps)
        check_ranges(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        if name == "bounds":
            code = cmd_bounds(cfg, out)
        elif name == "mixtimes":
            code = cmd_mixtimes(cfg, out)
        elif name == "compminimax":
            code = cmd_compminimax(cfg, out, threads=args.threads)
        elif name == "verify-finite":
            code = cmd_verify_finite(cfg, out)
        elif name == "mixture":
            code = cmd_mixture(cfg, out)
        elif name == "logistic":
            code = cmd_logistic(cfg, out)
        elif name == "gp":
            code = cmd_gp(cfg, out)
        else:
            code = cmd_diagnose(cfg, out)

        write_manifest(out, name, cfg)
        if (
            args.budget_seconds is not None
            and time.monotonic() - started > args.budget_seconds
        ):
            print(
                json.dumps({"warning": "wall-time budget exceeded"}),
                file=sys.stderr,
            )
        return code
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "subcommand": name}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
