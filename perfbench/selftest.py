"""Self-test of the output checks: each check must accept a correct output
and reject a known-wrong one.

    python3 perfbench/selftest.py

Needs numpy and mpmath, not ``amcmc``: the inputs are built here.  Exits 0
when every case behaves, 1 otherwise, and prints one line per case.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


def _write(path: Path, header, rows) -> Path:
    path.write_text(
        "\n".join([",".join(header)] + [",".join(str(v) for v in r) for r in rows]) + "\n",
        encoding="utf-8",
    )
    return path


def cases(tmp: Path):
    """(name, check result, expected ok) for every case."""
    g = np.random.default_rng(20261018)

    # logistic: the |V| = N trace, and the posterior mean of a correct and a
    # shifted chain (iid draws from the Laplace approximation)
    trace = g.normal(size=(80, 3))
    flipped = trace.copy()
    flipped.view(np.int64)[5, 1] ^= 1
    yield "bit_identical: same trace", checks.bit_identical(trace, trace.copy()), True
    yield "bit_identical: one bit flipped", checks.bit_identical(trace, flipped), False

    N, p, prior_var = 2000, 3, 100.0
    X = g.normal(size=(N, p))
    y = (g.uniform(size=N) < 1.0 / (1.0 + np.exp(-(X @ np.array([-1.0, 0.5, 1.5]))))).astype(float)
    beta = np.zeros(p)
    for _ in range(50):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        H = (X.T * (mu * (1.0 - mu))) @ X + np.eye(p) / prior_var
        beta = beta + np.linalg.solve(H, X.T @ (y - mu) - beta / prior_var)
    chain = g.multivariate_normal(beta, np.linalg.inv(H), size=80)
    sd = chain.std(axis=0)
    yield "posterior mean: Laplace draws", checks.logistic_posterior_mean(
        X, y, prior_var, chain, np.random.default_rng(1)), True
    yield "posterior mean: shifted by one posterior sd", checks.logistic_posterior_mean(
        X, y, prior_var, chain + sd, np.random.default_rng(1)), False

    # mixture: allocations and cell means
    table = SimpleNamespace(cells={(0, 1): 5, (2, 2): 7})
    good = {(0, 1): np.array([2, 3, 0]), (2, 2): np.array([7, 0, 0])}
    yield "allocations: valid", checks.allocations_valid([(table, good)]), True
    yield "allocations: negative entry", checks.allocations_valid(
        [(table, {**good, (0, 1): np.array([6, -1, 0])})]), False
    yield "allocations: wrong sum", checks.allocations_valid(
        [(table, {**good, (2, 2): np.array([5, 1, 0])})]), False
    counts, total = np.array([900.0, 400.0, 150.0]), 10_000
    p_hat = counts / total
    draws = p_hat + g.normal(size=(100, 3)) * np.sqrt(p_hat * (1 - p_hat) / total)
    yield "cell means: posterior around n(c)/N", checks.cell_means_match_counts(draws, counts, total), True
    yield "cell means: one cell shifted by 10 se", checks.cell_means_match_counts(
        draws + np.array([0.0, 10 * math.sqrt(p_hat[1] * (1 - p_hat[1]) / total), 0.0]), counts, total), False

    # gp: factor accuracy, likelihood, acceptance
    Xg = g.normal(size=(60, 3))
    Sigma = checks.se_kernel(Xg, 0.3)
    vals, vecs = np.linalg.eigh(Sigma)
    factor = SimpleNamespace(U=vecs[:, ::-1], lam=vals[::-1].copy(), delta=1e-6)
    off = SimpleNamespace(U=factor.U, lam=factor.lam.copy(), delta=1e-6)
    off.lam[0] += 1e-3
    yield "factor: exact eigendecomposition", checks.factor_within_delta(Xg, 0.3, factor), True
    yield "factor: one eigenvalue off by 1e-3", checks.factor_within_delta(Xg, 0.3, off), False
    yg = g.normal(size=60)
    gtrace = np.array([[0.5, 1.2, 0.0], [0.3, 0.8, 0.0]])

    def dense(yy, f, s2, t2):
        return checks.dense_loglik(yy, (f.U * f.lam) @ f.U.T, s2, t2)

    yield "loglik: dense", checks.loglik_matches_dense(Xg, yg, [0.3], [factor], gtrace, dense, 2), True
    yield "loglik: off by 1e-3", checks.loglik_matches_dense(
        Xg, yg, [0.3], [factor], gtrace, lambda *a: dense(*a) + 1e-3, 2), False
    yield "acceptance: 0.3", checks.acceptance_inside(0.3), True
    yield "acceptance: 0", checks.acceptance_inside(0.0), False
    yield "acceptance: 1", checks.acceptance_inside(1.0), False

    # calculus: one altered value in each CSV
    alpha, eps = 0.3, 0.02
    ts = [1, 2, 5, 17, 150, 1000, 10**5]
    header = ("t", "tv_exact", "tv_approx", "l2_exact", "l2_approx", "stationary_bias")
    rows = [[t] + [repr(float(checks.closed_forms(alpha, eps, t)[h])) for h in header[1:]] for t in ts]
    yield "bounds.csv: closed forms", checks.bounds_csv(_write(tmp / "b.csv", header, rows), alpha, eps), True
    bad = [list(r) for r in rows]
    bad[3][3] = repr(float(bad[3][3]) * (1 + 1e-6))
    yield "bounds.csv: one l2 value altered", checks.bounds_csv(_write(tmp / "b2.csv", header, bad), alpha, eps), False

    mheader = ("alpha", "delta", "mixing_time", "ceiling")
    mrows = []
    for a in (alpha, alpha - 2 * eps):
        for d in (1e-2, 1e-4):
            m = math.log(d) / math.log1p(-a)
            mrows.append([repr(a), repr(d), repr(m), math.ceil(m)])
    yield "mixtimes.csv: closed form", checks.mixtimes_csv(_write(tmp / "m.csv", mheader, mrows)), True
    bad = [list(r) for r in mrows]
    bad[1][3] += 1
    yield "mixtimes.csv: ceiling off by one", checks.mixtimes_csv(_write(tmp / "m2.csv", mheader, bad)), False

    cheader = ("tau_max", "form", "alpha", "eps_c", "t_opt", "bound_at_opt")
    crows = []
    for form in checks.SPEEDUP_FORMS:
        for tau in (10.0, 1000.0):
            crows.append([repr(tau), form, repr(alpha), "0.0", math.floor(tau),
                          repr(float(checks.closed_forms(alpha, 0.0, math.floor(tau))["tv_exact"]))])
    yield "compminimax.csv: eps* = 0 rows", checks.compminimax_csv(_write(tmp / "c.csv", cheader, crows), "tv", alpha, 2), True
    bad = [list(r) for r in crows]
    bad[2][4] += 1
    yield "compminimax.csv: t_opt off by one", checks.compminimax_csv(_write(tmp / "c2.csv", cheader, bad), "tv", alpha, 2), False
    bad = [list(r) for r in crows]
    bad[5][5] = repr(float(bad[5][5]) * 1.01)
    yield "compminimax.csv: one bound altered", checks.compminimax_csv(_write(tmp / "c3.csv", cheader, bad), "tv", alpha, 2), False
    bad = [list(r) for r in crows]
    e = 0.49 * alpha  # a consistent row whose bound exceeds its eps = 0 bound
    t_opt = math.floor(float(checks.speedup("linear", e, alpha)) * 10.0)
    bad[2] = [repr(10.0), "linear", repr(alpha), repr(e), t_opt,
              repr(float(checks.closed_forms(alpha, e, t_opt)["tv_approx"]))]
    yield "compminimax.csv: bound above eps = 0", checks.compminimax_csv(_write(tmp / "c4.csv", cheader, bad), "tv", alpha, 2), False

    vheader = ("check", "passed", "worst_error")
    vrows = [[n, 1, 0.0] for n in ("a", "b", "c", "d", "e")]
    yield "verify-finite: all pass", checks.verify_finite(0, _write(tmp / "v.csv", vheader, vrows)), True
    yield "verify-finite: exit 1", checks.verify_finite(1, _write(tmp / "v.csv", vheader, vrows)), False
    vrows[2][1] = 0
    yield "verify-finite: one check failed", checks.verify_finite(0, _write(tmp / "v2.csv", vheader, vrows)), False

    dheader = ("coord", "ess", "constant_flag", "geweke_z")
    t, rhos = 150_000, [0.7, 0.8]
    # two-state paths: the state flips with probability (1 - rho) / 2
    flips = g.uniform(size=(t - 1, 2)) < (1.0 - np.array(rhos)) / 2.0
    paths = np.vstack([np.zeros((1, 2)), np.cumsum(flips, axis=0) % 2])
    ess = [t * (1 - r) / (1 + r) for r in rhos]
    yield "diagnose: ESS at t(1-rho)/(1+rho)", checks.diagnose_ess(
        _write(tmp / "d.csv", dheader, [[j, repr(v), 0, 0.1] for j, v in enumerate(ess)]), paths, rhos), True
    yield "diagnose: ESS 30 % high", checks.diagnose_ess(
        _write(tmp / "d2.csv", dheader, [[0, repr(ess[0] * 1.3), 0, 0.1], [1, repr(ess[1]), 0, 0.1]]), paths, rhos), False
    yield "diagnose: ESS = t", checks.diagnose_ess(
        _write(tmp / "d3.csv", dheader, [[j, repr(float(t)), 0, 0.1] for j in range(2)]), paths, rhos), False


def main() -> int:
    tmp = HERE / "runs" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    wrong = 0
    for name, (ok, why), expected in cases(tmp):
        good = ok == expected
        wrong += not good
        verdict = "accepted" if ok else "rejected"
        print(f"{'ok ' if good else 'BAD'} {name}: {verdict}{'' if ok else f' ({why[:100]})'}")
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"{wrong} case(s) misjudged" if wrong else "all checks behave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
