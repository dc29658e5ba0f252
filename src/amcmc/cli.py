"""Command-line front end.

Subcommands: bounds, mixtimes, compminimax, verify-finite, mixture,
logistic, gp, diagnose.  Every run writes CSV artifacts plus a
manifest.json into --out; payloads are byte-reproducible for a fixed seed
and step budget.

The program needs numpy and the standard library only.  Importing this
module loads numpy and the calculus modules; ``SeededRng`` (which loads
numpy.random) and the sampler and diagnostics modules are imported by the
handlers that run them, before any chain starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import compminimax as cmx
from . import finite_chain as fc
from .config import resolve_config, parse_config_file, write_csv, write_manifest

#: Module attributes imported on first access (PEP 562), for callers that
#: reach the sampler and diagnostics modules through this one.  The handlers
#: import the same module objects, so a function replaced on ``cli.pg`` is
#: the one a handler calls.
_DEFERRED = {"diag": "diagnostics", "gp": "gp_lowrank", "mix": "mixture", "pg": "pg_logistic"}


def __getattr__(name: str):
    if name in _DEFERRED:
        return importlib.import_module(f".{_DEFERRED[name]}", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# ---------------------------------------------------------------------------
# subcommands: name -> (schema, handler); a schema maps key -> (type, default)
# ---------------------------------------------------------------------------

#: Every subcommand's config schema and the name of its handler, a function of
#: this module called as ``handler(cfg, out)``.  The handler is looked up by
#: name when it runs, so a replaced module attribute is the one called.
COMMANDS = {
    "bounds": ({
        "alpha": (float, 0.1),
        "epsilon": (float, 0.01),
        "tv0": (float, 1.0),
        "tv0_eps": (float, 1.0),
        "fstar": (float, 1.0),
        "t_max": (int, 10**5),
        "t_points": (int, 50),
    }, "cmd_bounds"),
    "mixtimes": ({
        "alphas": (list, [0.1, 1e-4]),
        "deltas": (list, [1e-2, 1e-4]),
    }, "cmd_mixtimes"),
    "compminimax": ({
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
    }, "cmd_compminimax"),
    "verify-finite": ({}, "cmd_verify_finite"),
    "mixture": ({
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
    }, "cmd_mixture"),
    "logistic": ({
        "seed": (int, 0),
        "N": (int, 2000),
        "p": (int, 5),
        "subset_sizes": (list, [200.0, 1000.0, 2000.0]),
        "steps": (int, 1000),
        "burn_in": (int, 200),
        "audit_every": (int, 10),
        "prior_var": (float, 100.0),
    }, "cmd_logistic"),
    "gp": ({
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
    }, "cmd_gp"),
    "diagnose": ({
        "trace": (str, ""),
        "k_max": (int, 20),
        "first_frac": (float, 0.1),
        "last_frac": (float, 0.5),
    }, "cmd_diagnose"),
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
    "phi_grid_size": 1,
    "k_max": 1,
}


#: Accepted interval of each float setting (every entry of a list setting),
#: and of d_prob.  A parenthesis excludes its end, so NaN and the infinities
#: never pass.  Budgets stop at 1e15 steps, so every path length
#: floor(s(eps) tau) fits an int64.  fstar stops at 1e150, so f^2 and the L2
#: bounds' constants (up to 8 f^2) stay finite; alpha starts at 1e-150, so
#: alpha^2 stays nonzero.  phi_true stops at 1e300, so the top of the phi
#: grid, 4 phi_true, stays finite.  The GP variances lie in [1e-150, 1e150],
#: so the powers and products in delta_for_epsilon neither overflow nor
#: vanish, and y'y stays finite.  The Dirichlet concentrations stop at
#: 1e150, so a row's sum of gamma draws stays finite; prior_var lies in
#: [1e-150, 1e150], so the prior precision 1/prior_var does too.  (A
#: prior_a small enough that lambda draws underflow to 0 is refused by the
#: sampler, which sees it happen.)  d_prob lies in [1, 300], so the failure
#: level 10^-d_prob stays a normal double below 1 and the probe safety factor
#: stays finite and positive.
INTERVALS = {
    "alpha": "[1e-150, 1)",
    "epsilon": "[0, 1]",
    "tv0": "[0, 1]",
    "tv0_eps": "[0, 1]",
    "fstar": "[0, 1e150]",
    "alphas": "(0, 1)",
    "deltas": "(0, 1)",
    "tau_min": "[1, 1e15]",
    "tau_max": "[1, 1e15]",
    "n_min": "[0, inf)",
    "prior_alpha": "(0, 1e150]",
    "prior_a": "(0, 1e150]",
    "subset_sizes": "[1, inf)",
    "prior_var": "[1e-150, 1e150]",
    "phi_true": "(0, 1e300]",
    "sigma2_true": "[1e-150, 1e150]",
    "tau2_true": "[1e-150, 1e150]",
    "delta": "(0, inf)",
    "d_prob": "[1, 300]",
    "first_frac": "(0, 1)",
    "last_frac": "(0, 1)",
}


#: Accepted values of each fixed-vocabulary string setting, checked whether
#: or not the run would read it.
CHOICES = {
    "discrepancy": ("tv", "l2"),
    "design": ("grid", "normal"),
    "second_branch": ("appendix", "remark"),
}


def _inside(value: float, interval: str) -> bool:
    low, high = (float(v) for v in interval[1:-1].split(","))
    above = value > low if interval[0] == "(" else value >= low
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


def check_ranges(cfg: dict) -> None:
    for key, low in MINIMUMS.items():
        if key in cfg and cfg[key] < low:
            raise ValueError(f"{key} must be >= {low}, got {cfg[key]}")
    for key, interval in INTERVALS.items():
        values = cfg.get(key, [])
        for v in values if isinstance(values, list) else [values]:
            if not _inside(v, interval):
                raise ValueError(f"{key} must lie in {interval}, got {v}")
    for key, choices in CHOICES.items():
        if key in cfg and cfg[key] not in choices:
            raise ValueError(f"{key} must be one of {', '.join(choices)}, got {cfg[key]!r}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_bounds(cfg: dict, out: Path) -> int:
    alpha, tv0_eps, fstar = cfg["alpha"], cfg["tv0_eps"], cfg["fstar"]
    params = bnd.ErgodicityParams(alpha, cfg["epsilon"])
    t = np.unique(np.geomspace(1, cfg["t_max"], cfg["t_points"]).astype(np.int64))
    inputs = bnd.BoundInputs(t=t, tv0=cfg["tv0"], fstar=fstar)
    columns = (
        t,
        bnd.tv_bound_exact(alpha, inputs),
        bnd.tv_bound_approx(params, t, tv0_eps),
        bnd.l2_bound_exact(alpha, inputs),
        bnd.l2_bound_approx(params, t, tv0_eps, fstar),
        np.full(len(t), bnd.stationary_bias_bound(params)),
    )
    write_csv(
        out / "bounds.csv",
        ("t", "tv_exact", "tv_approx", "l2_exact", "l2_approx", "stationary_bias"),
        zip(*columns),
    )
    return 0


def cmd_mixtimes(cfg: dict, out: Path) -> int:
    rows = []
    for alpha in cfg["alphas"]:
        for delta in cfg["deltas"]:
            m = bnd.mixing_time_bound(alpha, delta)
            if not math.isfinite(m):
                raise ValueError(f"mixing time overflows at alpha={alpha}, delta={delta}")
            rows.append((alpha, delta, m, math.ceil(m)))
    write_csv(out / "mixtimes.csv", ("alpha", "delta", "mixing_time", "ceiling"), rows)
    return 0


def cmd_compminimax(cfg: dict, out: Path) -> int:
    problem = cmx.CompminimaxProblem(
        discrepancy=cfg["discrepancy"],
        alpha=cfg["alpha"],
        tv0=cfg["tv0"],
        tv0_eps=cfg["tv0_eps"],
        fstar=cfg["fstar"],
        grid_size=cfg["grid_size"],
    )
    tau_grid = list(np.geomspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_points"]))
    forms = [f.strip() for f in cfg["forms"].split(",")]
    if not set(forms) <= set(cmx.SPEEDUP_FORMS):
        raise ValueError(f"forms must be a comma list of {', '.join(cmx.SPEEDUP_FORMS)}, got {cfg['forms']!r}")
    rows = []
    for form in forms:
        rows.extend(cmx.curve_epsilon_vs_budget(problem, form, tau_grid))
    write_csv(out / "compminimax.csv", cmx.CURVE_CSV_HEADER, rows)
    return 0


def finite_chain_checks() -> list[tuple[str, bool, float]]:
    """The sharpness suite: every finite-chain-lab invariant as a check row
    (name, passed, worst error)."""
    from .distributions import SeededRng

    checks: list[tuple[str, bool, float]] = []

    worst = 0.0
    ts = np.arange(1, 201)
    for a in (0.05, 0.25, 0.45):
        P = fc.two_state_symmetric(a)
        alpha = 2.0 * a
        for gamma in (0.0, 0.2):
            nu = fc.FiniteMeasure(np.array([gamma, 1.0 - gamma]))
            lhs = fc.cesaro_tv(nu, P, ts)
            rhs = bnd.tv_bound_exact(alpha, bnd.BoundInputs(t=ts, tv0=0.5 - gamma))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
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
    ts = np.array([1, 5, 25, 100])
    nu = fc.FiniteMeasure(np.array([0.0, 1.0]))
    for eps in (0.01, 0.05, 0.1):
        Ps = fc.two_state_shifted(a, eps)
        worst = max(worst, abs(fc.doeblin_alpha(Ps) - (2.0 * a - 2.0 * eps)))
        params = bnd.ErgodicityParams(2.0 * a, eps)
        rhs = bnd.tv_bound_approx(params, ts, 0.5) - eps / (2.0 * a)
        worst = max(worst, float(np.abs(fc.cesaro_tv(nu, Ps, ts) - rhs).max()))
    checks.append(("shifted_kernel", worst <= 1e-12, worst))

    # covariance bound: equality on the symmetric chain, inequality on
    # random kernels
    P = fc.two_state_symmetric(a)
    f = np.array([-1.0, 1.0])
    lags = np.arange(20)
    worst = float(np.abs(fc.exact_autocovariance(P, f, lags) - (1.0 - 2.0 * a) ** lags).max())
    checks.append(("covariance_equality", worst <= 1e-12, worst))

    rng = SeededRng(20240817)
    ok = True
    margin = 0.0
    lags = np.arange(6)
    for _ in range(100):
        K = 3 + int(rng.uniform() * 3)
        M = rng.uniform(size=(K, K)) + 0.05
        M /= M.sum(axis=1, keepdims=True)
        P = fc.FiniteKernel(M)
        alpha = fc.doeblin_alpha(P)
        f = rng.uniform(size=K)
        fstar = 0.5 * (f.max() - f.min())
        cov = fc.exact_autocovariance(P, f, lags)
        bound = (1.0 - alpha) ** lags * fstar * fstar
        margin = max(margin, float((cov - bound).max()))
        ok = ok and bool(np.all(cov <= bound + 1e-12))
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
    from . import diagnostics as diag
    from . import mixture as mix
    from .distributions import SeededRng

    rng_sim = SeededRng(cfg["seed"], stream=0)
    priors = mix.MixturePriors(cfg["prior_alpha"], cfg["prior_a"])
    data, _, _, true_pi = mix.simulate_contingency(
        rng_sim, cfg["p"], cfg["d"], cfg["K"], cfg["N"], priors
    )
    top = sorted(data.cells, key=lambda c: (-data.cells[c], c))[: cfg["top_cells"]]
    top_index = np.array(top, dtype=np.int64).reshape(len(top), cfg["p"])

    # grow the table linearly during burn-in to dodge bad modes: burn-in
    # sweep i sees the cells in sorted order up to a tenth of the counts
    # per ramp // 10 sweeps.  Both chains share the sub-tables.
    ramp = cfg["burn_in"] if cfg["data_ramp"] else 0
    totals = [int((i // max(ramp // 10, 1) + 1) / 10.0 * data.total) for i in range(ramp)]
    ramp_tables = {t: data.prefix(t) for t in set(totals)}

    def run(n_min: float, stream: int) -> np.ndarray:
        rng = SeededRng(cfg["seed"], stream=stream)
        state = mix.init_state(rng, data, priors)
        rows = np.empty((cfg["steps"], len(top)))
        for i in range(cfg["burn_in"] + cfg["steps"]):
            cur = ramp_tables[totals[i]] if i < ramp else data
            if math.isinf(n_min):
                state = mix.gibbs_step_exact(rng, state, cur, priors)
            else:
                state = mix.gibbs_step_approx(rng, state, cur, priors, n_min)
            if i >= cfg["burn_in"]:
                rows[i - cfg["burn_in"]] = mix.cell_probability(state.nu, state.lam, top_index)
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
    from . import diagnostics as diag

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
        diag.Trace(res["exact"]),
        out / "mixture_trace_exact.csv",
        names=["|".join(map(str, c)) for c in top],
    )
    diag.write_trace_csv(
        diag.Trace(res["approx"]),
        out / "mixture_trace_approx.csv",
        names=["|".join(map(str, c)) for c in top],
    )
    write_csv(out / "mixture_summary.csv", ("metric", "value"), [("w1_exact_vs_approx", res["w1"])])
    return 0


def run_logistic_experiment(cfg: dict) -> dict:
    from . import diagnostics as diag
    from . import pg_logistic as pg
    from .distributions import SeededRng

    sizes = cfg["subset_sizes"]
    if not all(s == int(s) and cfg["p"] < s <= cfg["N"] for s in sizes):
        raise ValueError(
            f"subset_sizes must be integers in [p + 1, N] = [{cfg['p'] + 1}, {cfg['N']}], got {sizes}"
        )
    rng_sim = SeededRng(cfg["seed"], stream=0)
    data, beta_true = pg.simulate_logistic(rng_sim, cfg["N"], cfg["p"])
    B = cfg["prior_var"] * np.eye(data.p)

    exact = pg.run_chain(
        SeededRng(cfg["seed"], stream=1),
        data,
        B,
        cfg["steps"],
        cfg["burn_in"],
    )
    exact_mean = exact.trace.mean(axis=0)

    per_size = []
    for k, size in enumerate(int(s) for s in sizes):
        policy = pg.SubsetPolicy(size=size)
        res = pg.run_chain(
            SeededRng(cfg["seed"], stream=1),
            data,
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
    from . import diagnostics as diag

    res = run_logistic_experiment(cfg)
    write_csv(
        out / "logistic_subsets.csv",
        ("subset_size", "rmse_vs_exact", "w1_vs_exact", "audit_tv_median"),
        [(d["size"], d["rmse"], d["w1"], d["audit_median"]) for d in res["per_size"]],
    )
    diag.write_trace_csv(
        diag.Trace(res["exact"].trace), out / "logistic_trace_exact.csv"
    )
    for d in res["per_size"]:
        diag.write_trace_csv(
            diag.Trace(d["result"].trace),
            out / f"logistic_trace_v{d['size']}.csv",
        )
    return 0


def cmd_gp(cfg: dict, out: Path) -> int:
    from . import diagnostics as diag
    from . import gp_lowrank as gp
    from .distributions import SeededRng

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
    run = sampler.run(SeededRng(cfg["seed"], stream=2), cfg["steps"], cfg["burn_in"])
    trace = run["trace"]
    diag.write_trace_csv(
        diag.Trace(trace),
        out / "gp_trace.csv",
        names=["sigma2", "tau2", "phi_index"],
    )
    pred = run["pred_mean"]
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
    from . import diagnostics as diag

    if not cfg["trace"]:
        raise ValueError("diagnose requires a trace CSV (key 'trace')")
    trace = diag.read_trace_csv(cfg["trace"])
    ess, flags = diag.effective_sample_size(trace)
    z = diag.geweke_z(trace, cfg["first_frac"], cfg["last_frac"])
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


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` where argparse would print its usage and exit,
    so a bad command line gets the same JSON record as a bad value."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand: --config, --out, one flag per schema key,
    and --budget-steps where the schema has ``steps``.  A schema flag is set
    only when given, as a raw string; ``resolve_config`` types it."""
    parser = _Parser(
        prog="amcmc",
        description="Approximate-MCMC error bounds, samplers, and diagnostics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (schema, _handler) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default="out")
        if "steps" in schema:
            p.add_argument("--budget-steps", type=int, default=None)
        for key in schema:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first word; None when the command line has none
    name = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser().parse_args(argv)
        schema, handler = COMMANDS[name]
        values = parse_config_file(args.config) if args.config else {}
        values.update((k, v) for k, v in vars(args).items() if k in schema)
        cfg = resolve_config(schema, values)
        if getattr(args, "budget_steps", None) is not None:
            cfg["steps"] = min(cfg["steps"], args.budget_steps)
        check_ranges(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        code = globals()[handler](cfg, out)

        write_manifest(out, name, cfg)
        return code
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; its name is the record's
        print(json.dumps({"error": str(exc) or type(exc).__name__, "subcommand": name}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
