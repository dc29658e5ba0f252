"""One round of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py <workload> <seed> <round_dir> <trace> <check> <spawned>

``spawned`` is the parent's ``time.monotonic()`` stamp taken just before it
started this process (CLOCK_MONOTONIC is shared by all processes), so
set-up and wall time include interpreter start.  The round writes
``result.json`` (and ``spans.json`` when traced) into ``round_dir``.

Each sampler workload runs its ``amcmc`` subcommand in this process through
``amcmc.cli.main`` with the arguments a user would type, so every timing
covers the program's own code.  Chain times, the start of the first sweep
and the values the checks need come from hooks on the program's functions
(:func:`_hook`); a hook calls the original once and returns its result.
The ``calculus`` workload runs each subcommand as a cold process through
``cli_launch.py``.  With ``check`` = 1 the round also runs the output checks
of ``checks.py``; they start after the last artifact is written and are not
part of any timing.

Module-level imports are standard library only: ``run.py`` imports this
module for the operation plans, and the timed set-up of a round starts at
interpreter start, so numpy and ``amcmc`` are imported where a round
needs them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# workload inputs (sizes are fixed; the seed picks the data)
# ---------------------------------------------------------------------------

LOGISTIC = dict(N=1500, p=5, subset_sizes=[150, 750, 1500], steps=100, burn_in=50, audit_every=10,
                prior_var=100.0)
MIXTURE = dict(p=3, d=6, K=3, N=10000, n_min=50.0, steps=100, burn_in=50, top_cells=20)
GP = dict(
    n=500, q=6, design="normal", phi_true=0.1, sigma2_true=0.25, tau2_true=1.0,
    d_prob=3, phi_grid_size=6, steps=1800, burn_in=200,
)
#: delta of each GP sampler: "exact" near its floor, approximate coarse
GP_DELTA = {"exact": 1e-6, "approx": 0.1}
CALCULUS = dict(path_steps=150_000, tau_points=10)

#: Operations one round attempts, in order.  An operation is one chain, one
#: factorisation or one CLI call.
PLANS = {
    "logistic": ["chain.exact"] + [f"chain.v{v}" for v in LOGISTIC["subset_sizes"]],
    "mixture": ["chain.exact", "chain.approx"],
    "gp": [f"factor.{role}.{k}" for role in GP_DELTA for k in range(GP["phi_grid_size"])]
    + ["chain.exact", "chain.approx"],
    "calculus": [
        "chain.path_exact", "chain.path_approx", "cli.bounds", "cli.mixtimes", "cli.compminimax_tv",
        "cli.compminimax_l2", "cli.verify-finite", "cli.diagnose",
    ],
}

#: Chains whose sweeps make up each rate, as (exact, approximate) keys of
#: ``Round.chains``; the |V| = N logistic chain is a check, not a rate.
RATE_CHAINS = {
    "logistic": (["exact"], [f"v{v}" for v in LOGISTIC["subset_sizes"][:-1]]),
    "mixture": (["exact"], ["approx"]),
    "gp": (["exact"], ["approx"]),
    "calculus": (["path_exact"], ["path_approx"]),
}


def calculus_params(seed: int) -> tuple[float, float]:
    """Doeblin constant alpha and approximation error epsilon of the
    calculus workload, drawn from the seed: alpha in [0.2, 0.4] and
    epsilon = (alpha / 2) u with u in [0.1, 0.3]."""
    import numpy as np

    g = np.random.default_rng([seed, 7])
    alpha = float(g.uniform(0.2, 0.4))
    return alpha, 0.5 * alpha * float(g.uniform(0.1, 0.3))


def cli_argv(subcommand: str, seed: int, out: Path, options: dict) -> list[str]:
    """``amcmc <subcommand>`` arguments for a config dict, flags spelled
    as the subcommand's parser spells them."""
    argv = [subcommand, "--seed", str(seed), "--out", str(out)]
    for key, value in options.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


# ---------------------------------------------------------------------------
# round bookkeeping
# ---------------------------------------------------------------------------


def _hook(owner, attr: str, hook) -> None:
    """Replace ``owner.attr`` by ``hook(original, *args, **kwargs)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, lambda *args, **kwargs: hook(original, *args, **kwargs))


class Round:
    def __init__(self, workload, seed, out: Path, traced: bool, check: bool, spawned: float):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.check = check
        self.spawned = spawned
        self.tracer = None
        if traced:
            from tracing import Tracer

            self.tracer = Tracer()
        self.ops: dict[str, dict] = {name: {"ok": None} for name in PLANS[workload]}
        self.chains: dict[str, dict] = {}
        self.e2e: dict[str, list[float]] = {}
        self.info: dict = {}
        self._first_chain = None
        self._chain_t0 = 0.0
        self._call_t0 = None
        self._later_setup = 0.0

    def import_cli(self):
        if self.tracer is not None:
            with self.tracer.span("cli.import"):
                import amcmc.cli as cli
        else:
            import amcmc.cli as cli
        return cli

    def begin_call(self) -> None:
        """A later subcommand call of the same round starts (``gp``): its
        time until its chain starts is set-up too."""
        self._call_t0 = time.monotonic()

    def begin_chain(self) -> None:
        t0 = self._chain_t0 = time.monotonic()
        if self._first_chain is None:
            self._first_chain = t0
        elif self._call_t0 is not None:
            self._later_setup += t0 - self._call_t0
        self._call_t0 = None

    def whole_chain(self, key: str, sweeps: int, call):
        """Run and time one whole chain, ``call()``."""
        self.begin_chain()
        result = call()
        self.chains[key] = {"sweeps": sweeps, "seconds": time.monotonic() - self._chain_t0}
        return result

    def sweep(self, key: str) -> None:
        """One more sweep of the chain begun by the last ``begin_chain``."""
        rec = self.chains.setdefault(key, {"sweeps": 0})
        rec["sweeps"] += 1
        rec["seconds"] = time.monotonic() - self._chain_t0

    def finish_artifacts(self) -> None:
        """Stamp the end of the program's work: wall time, set-up and peak
        RSS.  ``run.py`` takes the rates from ``self.chains``."""
        now = time.monotonic()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.e2e["wall_s"] = [now - self.spawned]
        self.e2e["setup_s"] = [self._first_chain - self.spawned + self._later_setup]
        self.e2e["peak_rss_mb"] = [rss]

    def op(self, name: str, ok: bool, why: str = "") -> None:
        rec = self.ops[name]
        if rec["ok"] is False:
            return
        rec["ok"] = bool(ok)
        if not ok:
            rec["why"] = why

    def chain_ops(self, codes: list[int]) -> None:
        """Each planned chain ran, in subcommand calls that exited 0."""
        for name in self.ops:
            if name.startswith("chain."):
                self.op(name, name[6:] in self.chains and not any(codes), f"subcommand exit codes {codes}")

    def artifact_hashes(self) -> dict[str, str]:
        out = {}
        for path in sorted(self.out.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(self.out))] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    def result(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.tracer is not None,
            "ops": self.ops,
            "chains": self.chains,
            "e2e": self.e2e,
            "info": self.info,
        }


def _install(tracer, workload: str, rd: Round) -> None:
    """Spans around the module functions each sampler workload reaches.
    Installed over the round's hooks, so a span's counts may read what the
    hook recorded."""
    import amcmc.cli as cli
    import amcmc.diagnostics as diag
    import amcmc.gp_lowrank as gp
    import amcmc.mixture as mix
    import amcmc.pg_logistic as pg
    import numpy as np
    from tracing import file_bytes

    tracer.wrap(cli, "write_csv", "config.write_csv", file_bytes)
    tracer.wrap(cli, "write_manifest", "config.write_manifest", file_bytes)
    tracer.wrap(diag, "w1_kernel_distance", "diagnostics.w1_kernel_distance")
    if workload == "logistic":
        tracer.wrap(pg, "run_chain", "pg_logistic.run_chain",
                    lambda a, k, r: {"size": k["policy"].size if k.get("policy") else 0})
        tracer.wrap(pg, "gibbs_step_exact", "pg_logistic.gibbs_step_exact")
        tracer.wrap(pg, "gibbs_step_subset", "pg_logistic.gibbs_step_subset")
        tracer.wrap(pg, "_audit_tv", "pg_logistic._audit_tv")
        tracer.wrap(
            pg, "sample_polya_gamma", "distributions.sample_polya_gamma",
            lambda a, k, r: {"variates": int(np.size(a[1]))},
        )
    elif workload == "mixture":
        tracer.wrap(mix, "gibbs_step_exact", "mixture.gibbs_step_exact")
        tracer.wrap(mix, "gibbs_step_approx", "mixture.gibbs_step_approx",
                    lambda a, k, r: {"burn_in": int(rd.chains["approx"]["sweeps"] <= MIXTURE["burn_in"])})
        tracer.wrap(mix, "latent_class_probs", "mixture.latent_class_probs")
        tracer.wrap(mix, "approx_multinomial_draw", "mixture.approx_multinomial_draw")
        tracer.wrap(mix, "sample_multinomial", "distributions.sample_multinomial")
        tracer.wrap(mix, "sample_mvn", "distributions.sample_mvn")
    elif workload == "gp":
        role = {delta: name for name, delta in GP_DELTA.items()}
        # the class's run first: the next wrap replaces the name GPSampler by a function
        tracer.wrap(gp.GPSampler, "run", "gp_lowrank.GPSampler.run", lambda a, k, r: {"role": role[a[0].delta]})
        tracer.wrap(gp, "GPSampler", "gp_lowrank.GPSampler", lambda a, k, r: {
            "role": role[r.delta], "mean_rank": r.mean_rank, "full_rank": sum(int(f.full_rank) for f in r.factors),
        })
        tracer.wrap(gp, "randomized_partial_eig", "gp_lowrank.randomized_partial_eig",
                    lambda a, k, r: {"rank": r.r, "full_rank": int(r.full_rank)})
        tracer.wrap(gp, "marginal_loglik", "gp_lowrank.marginal_loglik")
        tracer.wrap(gp, "mh_griddy_step", "gp_lowrank.mh_griddy_step")
        tracer.wrap(gp, "predictive_f_draw", "gp_lowrank.predictive_f_draw")


# ---------------------------------------------------------------------------
# sampler workloads: the subcommand itself, observed through hooks
# ---------------------------------------------------------------------------


def run_logistic(rd: Round) -> None:
    cli = rd.import_cli()
    import numpy as np

    w = LOGISTIC
    sweeps = w["steps"] + w["burn_in"]
    seen = {}

    def chain(run_chain, *args, **kwargs):
        policy = kwargs.get("policy")
        key = f"v{policy.size}" if policy is not None else "exact"
        return rd.whole_chain(key, sweeps, lambda: run_chain(*args, **kwargs))

    _hook(cli.pg, "run_chain", chain)
    _hook(cli, "run_logistic_experiment", lambda f, cfg: seen.setdefault("res", f(cfg)))
    if rd.tracer is not None:
        _install(rd.tracer, "logistic", rd)
    code = cli.main(cli_argv("logistic", rd.seed, rd.out, w))
    rd.finish_artifacts()
    rd.chain_ops([code])

    if rd.check and code == 0:
        import checks

        res = seen["res"]
        exact, data = res["exact"], res["data"]
        rd.op(f"chain.v{w['N']}", *checks.bit_identical(exact.trace, res["per_size"][-1]["result"].trace))
        rd.op("chain.exact", *checks.logistic_posterior_mean(
            data.X, data.y, w["prior_var"], exact.trace, np.random.default_rng([rd.seed, 1])))
        rd.info["ess"] = {"exact": checks.mean_ess(exact.trace)}
        for d in res["per_size"][:-1]:
            rd.info["ess"][f"v{d['size']}"] = checks.mean_ess(d["result"].trace)


def run_mixture(rd: Round) -> None:
    cli = rd.import_cli()
    import numpy as np

    seen = {}
    allocations: dict[str, list] = {"exact": [], "approx": []}

    def init_state(f, *args):
        rd.begin_chain()
        return f(*args)

    def step(key):
        def hooked(f, rng, state, data, *rest):
            state = f(rng, state, data, *rest)
            rd.sweep(key)
            allocations[key].append((data, state.Z))
            return state
        return hooked

    _hook(cli.mix, "init_state", init_state)
    _hook(cli.mix, "gibbs_step_exact", step("exact"))
    _hook(cli.mix, "gibbs_step_approx", step("approx"))
    _hook(cli, "run_mixture_experiment", lambda f, cfg: seen.setdefault("res", f(cfg)))
    if rd.tracer is not None:
        _install(rd.tracer, "mixture", rd)
    code = cli.main(cli_argv("mixture", rd.seed, rd.out, MIXTURE))
    rd.finish_artifacts()
    rd.chain_ops([code])

    if rd.check and code == 0:
        import checks

        res = seen["res"]
        data = res["data"]
        counts = np.array([data.cells[c] for c in res["top"]], dtype=float)
        for key in ("exact", "approx"):
            rd.op(f"chain.{key}", *checks.allocations_valid(allocations[key]))
            rd.op(f"chain.{key}", *checks.cell_means_match_counts(res[key], counts, data.total))
        rd.info["ess"] = {key: checks.mean_ess(res[key]) for key in ("exact", "approx")}
        rd.info["n_cells"] = data.n_cells


def run_gp(rd: Round) -> None:
    cli = rd.import_cli()

    w = GP
    role = {delta: name for name, delta in GP_DELTA.items()}
    samplers, runs = {}, {}

    def cmd_gp(f, cfg, out):
        rd.begin_call()
        return f(cfg, out)

    def run(f, self, rng, steps, burn_in, **kwargs):
        key = role[self.delta]
        samplers[key] = self
        runs[key] = rd.whole_chain(key, steps + burn_in, lambda: f(self, rng, steps, burn_in, **kwargs))
        return runs[key]

    _hook(cli, "cmd_gp", cmd_gp)
    _hook(cli.gp.GPSampler, "run", run)
    if rd.tracer is not None:
        _install(rd.tracer, "gp", rd)
    codes = [cli.main(cli_argv("gp", rd.seed, rd.out / name, {**w, "delta": delta}))
             for name, delta in GP_DELTA.items()]
    rd.finish_artifacts()
    rd.chain_ops(codes)
    for name in GP_DELTA:
        built = len(samplers[name].factors) if name in samplers else 0
        for k in range(w["phi_grid_size"]):
            rd.op(f"factor.{name}.{k}", k < built, "sampler not built")

    if rd.check and not any(codes):
        import checks

        model = samplers["exact"].model
        for name, s in samplers.items():
            for k, (phi, factor) in enumerate(zip(model.phi_grid, s.factors)):
                rd.op(f"factor.{name}.{k}", *checks.factor_within_delta(model.X, phi, factor))
            rd.op(f"chain.{name}", *checks.acceptance_inside(runs[name]["accept_rate"]))
        rd.op("chain.exact", *checks.loglik_matches_dense(
            model.X, model.y, model.phi_grid, samplers["exact"].factors, runs["exact"]["trace"],
            cli.gp.marginal_loglik))
        rd.info["ess"] = {name: checks.mean_ess(r["trace"][:, :2]) for name, r in runs.items()}
        rd.info["mean_rank"] = {name: s.mean_rank for name, s in samplers.items()}


# ---------------------------------------------------------------------------
# calculus workload: each subcommand in a cold process
# ---------------------------------------------------------------------------


def calculus_calls(alpha: float, eps: float) -> list[tuple[str, list[str]]]:
    """(operation, argv) of the six subcommands; they run in the round's
    output directory, so every path in their manifests is the same in
    every round."""
    tp = str(CALCULUS["tau_points"])
    return [
        ("cli.bounds", ["bounds", "--alpha", repr(alpha), "--epsilon", repr(eps)]),
        ("cli.mixtimes", ["mixtimes", "--alphas", f"{alpha!r},{alpha - 2 * eps!r}"]),
        ("cli.compminimax_tv", ["compminimax", "--discrepancy", "tv", "--alpha", repr(alpha), "--tau-points", tp]),
        ("cli.compminimax_l2", ["compminimax", "--discrepancy", "l2", "--alpha", repr(alpha), "--tau-points", tp]),
        ("cli.verify-finite", ["verify-finite"]),
        ("cli.diagnose", ["diagnose", "--trace", "path.csv"]),
    ]


def run_calculus(rd: Round) -> None:
    import numpy as np
    from amcmc import finite_chain as fc
    from amcmc.distributions import SeededRng

    seed = rd.seed
    alpha, eps = calculus_params(seed)
    a = alpha / 2.0
    kernels = {"path_exact": fc.two_state_symmetric(a), "path_approx": fc.two_state_shifted(a, eps)}
    nu = fc.FiniteMeasure(np.array([0.5, 0.5]))
    T = CALCULUS["path_steps"]
    if rd.tracer is not None:
        rd.tracer.wrap(fc, "simulate_path", "finite_chain.simulate_path", lambda a, k, r: {"steps": a[3]})
    calls = calculus_calls(alpha, eps)
    pieces: dict[str, list] = {key: [] for key in kernels}

    def simulate_piece(k: int) -> None:
        """Piece k of both paths.  A piece runs before every subcommand but
        ``diagnose``, so the two path rates sample the machine's speed over
        the whole round, not over one second of it.  A later piece starts
        where the last one ended, so the pieces join into one Markov path."""
        n = T // (len(calls) - 1)
        for j, (key, P) in enumerate(kernels.items()):
            done = pieces[key]
            start = nu if not done else fc.FiniteMeasure(np.eye(2)[done[-1][-1]])
            t0 = time.monotonic()
            path = fc.simulate_path(SeededRng(seed, 1 + 2 * k + j), P, start, n + bool(done))
            rec = rd.chains.setdefault(key, {"sweeps": 0, "seconds": 0.0})
            rec["sweeps"] += n
            rec["seconds"] += time.monotonic() - t0
            done.append(path[1:] if done else path)

    def write_paths() -> np.ndarray:
        """The joined paths, as the trace CSV ``diagnose`` reads."""
        paths = np.column_stack([np.concatenate(pieces[key]) for key in kernels]).astype(float)
        with open(rd.out / "path.csv", "w", encoding="utf-8") as fh:
            fh.write("x_exact,x_approx\n")
            fh.writelines(f"{u!r},{v!r}\n" for u, v in paths.tolist())
        for key in kernels:
            rd.op(f"chain.{key}", True)
        return paths

    codes, setup, spans = {}, [], []
    for k, (op, argv) in enumerate(calls):
        if op == "cli.diagnose":
            paths = write_paths()
        else:
            simulate_piece(k)
        stamp = rd.out / f"stamp{k}.json"
        span_file = rd.out / f"spans{k}.json"
        cmd = [sys.executable, str(HERE / "cli_launch.py"), str(stamp),
               "1" if rd.tracer is not None else "0", str(span_file)]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + argv + ["--out", op.split(".", 1)[1]], cwd=rd.out,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            rd.op(op, False, "timed out after 120 s")
            continue
        codes[op] = proc.returncode
        rd.op(op, proc.returncode == 0, f"exit {proc.returncode}: {err.decode(errors='replace')[-400:]}")
        with open(stamp, encoding="utf-8") as fh:
            setup.append(json.load(fh)["import_done"] - t0)
        if rd.tracer is not None:
            spans.append(span_file)
    now = time.monotonic()
    rd.e2e["wall_s"] = [now - rd.spawned]
    rd.e2e["setup_s"] = setup
    rd.e2e["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    os.remove(rd.out / "path.csv")  # input, not an artifact
    for k in range(len(codes)):
        os.remove(rd.out / f"stamp{k}.json")
    if rd.tracer is not None:
        from tracing import load

        band = []  # (t, alpha) of the longest band-path variance_factor call of each subcommand
        for path in spans:
            other = load(path)
            if "band_t" in other["notes"]:
                band.append((other["notes"].pop("band_t"), other["notes"].pop("band_alpha")))
            rd.tracer.merge(other)
            os.remove(path)
        if band:
            rd.tracer.notes["bounds.variance_factor_peak_mb"] = _band_peak_mb(*max(band))

    if rd.check:
        import checks

        rd.op("cli.bounds", *checks.bounds_csv(rd.out / "bounds" / "bounds.csv", alpha, eps))
        rd.op("cli.mixtimes", *checks.mixtimes_csv(rd.out / "mixtimes" / "mixtimes.csv"))
        for d in ("tv", "l2"):
            rd.op(f"cli.compminimax_{d}", *checks.compminimax_csv(
                rd.out / f"compminimax_{d}" / "compminimax.csv", d, alpha, CALCULUS["tau_points"]))
        rd.op("cli.verify-finite", *checks.verify_finite(
            codes.get("cli.verify-finite"), rd.out / "verify-finite" / "verify_finite.csv"))
        rd.op("cli.diagnose", *checks.diagnose_ess(
            rd.out / "diagnose" / "diagnose_coords.csv", paths, [1.0 - alpha, 1.0 - alpha + 2.0 * eps]))
        rd.info["alpha"], rd.info["epsilon"] = alpha, eps


def _band_peak_mb(t: int, alpha: float) -> float:
    """tracemalloc peak of one band-path ``variance_factor`` call, replayed
    in the round process after its wall-time stamp."""
    import tracemalloc

    from amcmc.bounds import variance_factor

    tracemalloc.start()
    variance_factor(int(t), alpha)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


RUNNERS = {"logistic": run_logistic, "mixture": run_mixture, "gp": run_gp, "calculus": run_calculus}


def main(argv: list[str]) -> int:
    workload, seed, round_dir, traced, check, spawned = argv
    out = Path(round_dir) / "out"
    out.mkdir(parents=True)
    rd = Round(workload, int(seed), out, traced == "1", check == "1", float(spawned))
    try:
        RUNNERS[workload](rd)
    except Exception:
        tb = traceback.format_exc()
        for rec in rd.ops.values():
            if rec["ok"] is not True:
                rec["ok"], rec["why"] = False, tb[-2000:]
    kernels = sys.modules.get("amcmc._kernels")
    if kernels is not None:
        rd.info["has_numba"] = kernels.HAS_NUMBA
    for rec in rd.ops.values():
        if rec["ok"] is None:
            rec["ok"], rec["why"] = False, "not reached"
    result = rd.result()
    result["hashes"] = rd.artifact_hashes()
    if rd.tracer is not None:
        rd.tracer.restore()
        rd.tracer.dump(Path(round_dir) / "spans.json")
    with open(Path(round_dir) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
