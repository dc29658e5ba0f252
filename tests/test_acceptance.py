"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion NN ... PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and asserts at the stated tolerance.  The
stochastic criteria fix every seed, and criterion 12 re-runs them to check
byte-level reproducibility.
"""

import math
import time

import numpy as np

from amcmc.bounds import (
    BoundInputs,
    ErgodicityParams,
    l2_bound_exact,
    mixing_time_bound,
    stationary_bias_bound,
    tv_bound_exact,
    variance_factor,
)
from amcmc.cli import run_logistic_experiment
from amcmc.compminimax import (
    CompminimaxProblem,
    curve_epsilon_vs_budget,
    epsilon_compminimax,
)
from amcmc.diagnostics import Trace, effective_sample_size, phi_max, w1_kernel_distance
from amcmc.distributions import SeededRng, polya_gamma_mean, sample_polya_gamma
from amcmc.finite_chain import (
    FiniteMeasure,
    cesaro_tv,
    ergodic_average_law,
    invariant_measure,
    simulate_path,
    two_state_perturbed,
    two_state_shifted,
    two_state_symmetric,
)
from amcmc.gp_lowrank import (
    eig_accuracy_metrics,
    randomized_partial_eig,
    run_budget_experiment,
    se_covariance,
    simulate_gp,
)
from amcmc.mixture import tv_multinomial_vs_rounded_gaussian


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# shared seeded runs, reused by criterion 12's reproducibility check
_CACHE: dict = {}


LOGISTIC_CFG = {
    "seed": 0,
    "N": 2000,
    "p": 5,
    "subset_sizes": [200, 1000, 2000],
    "steps": 600,
    "burn_in": 150,
    "audit_every": 25,
    "prior_var": 100.0,
}


# ---------------------------------------------------------------------------


def test_criterion_01_tv_bound_sharp_on_two_state_chain():
    start = time.monotonic()
    worst = 0.0
    for a in (0.05, 0.25, 0.45):
        P = two_state_symmetric(a)
        nu = FiniteMeasure(np.array([0.0, 1.0]))
        for t in range(1, 201):
            bound = tv_bound_exact(2 * a, BoundInputs(t=t, tv0=0.5))
            worst = max(worst, abs(cesaro_tv(nu, P, t) - bound))
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "TV bound attained on the symmetric 2-state chain",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_stationary_gap_and_shifted_kernel_sharp():
    start = time.monotonic()
    a = 0.25
    alpha = 2 * a
    worst_gap = 0.0
    worst_shift = 0.0
    pi = invariant_measure(two_state_symmetric(a)).weights
    for eps in (0.01, 0.05, 0.1):
        pi_eps = invariant_measure(two_state_perturbed(a, eps)).weights
        tv = 0.5 * np.abs(pi - pi_eps).sum()
        worst_gap = max(
            worst_gap,
            abs(tv - stationary_bias_bound(ErgodicityParams(alpha, eps))),
        )
        # the shifted kernel realizes the Cesaro term at rate alpha - 2 eps
        Q = two_state_shifted(a, eps)
        nu = FiniteMeasure(np.array([0.0, 1.0]))
        for t in (1, 2, 5, 20, 100):
            want = tv_bound_exact(alpha - 2 * eps, BoundInputs(t=t, tv0=0.5))
            worst_shift = max(worst_shift, abs(cesaro_tv(nu, Q, t) - want))
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "stationary gap eps/alpha and shifted-kernel Cesaro term",
        worst_gap <= 1e-12 and worst_shift <= 1e-12 and elapsed < 1.0,
        f"gap {worst_gap:.2e}, shift {worst_shift:.2e}",
    )


def test_criterion_03_variance_factor_and_l2_bound_dominates_exact_error():
    start = time.monotonic()
    # closed form vs the literal double sum, via cumulative principal minors
    worst = 0.0
    t_max = 500
    for alpha in (1e-4, 0.01, 0.1, 0.5, 0.9):
        M = (1.0 - alpha) ** np.abs(np.subtract.outer(np.arange(t_max), np.arange(t_max)))
        running = 0.0
        for t in range(1, t_max + 1):
            running += 2.0 * M[t - 1, : t - 1].sum() + 1.0
            worst = max(worst, abs(variance_factor(t, alpha) - running / (t * t)))
    # the L2 bound must dominate the exact mean-squared error of the
    # ergodic average, computed by dynamic programming on the 2-state chain
    a = 0.25
    P = two_state_symmetric(a)
    nu = FiniteMeasure(np.array([0.0, 1.0]))
    f = np.array([0.0, 1.0])  # pi f = 1/2, oscillation seminorm 1/2
    dominated = True
    for t in range(1, 65):
        support, probs = ergodic_average_law(P, f, nu, t)
        mse = float(np.sum(probs * (support - 0.5) ** 2))
        bound = l2_bound_exact(2 * a, BoundInputs(t=t, tv0=0.5, fstar=0.5))
        dominated = dominated and bound >= mse - 1e-15
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "variance factor closed form + L2 bound dominates DP oracle",
        worst <= 1e-12 and dominated and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_mixing_time_endpoints():
    start = time.monotonic()
    lo = mixing_time_bound(0.1, 0.01)
    hi = mixing_time_bound(1e-4, 1e-4)
    elapsed = time.monotonic() - start
    _verdict(
        4,
        "mixing-time endpoints",
        43.0 <= lo <= 46.0 and 92_000.0 <= hi <= 92_200.0 and elapsed < 1e-3,
        f"{lo:.1f} and {hi:.1f}",
    )


def test_criterion_05_compminimax_shape_suite():
    start = time.monotonic()
    tau_star = 10.0 * mixing_time_bound(0.1, 0.01)  # ~437.1

    # (a) no speedup -> approximating never pays
    prob = CompminimaxProblem("tv", 0.1)
    eps_c, t_opt, _ = epsilon_compminimax(prob, "constant", tau_star)
    part_a = eps_c == 0.0 and t_opt == int(tau_star)

    # (b) non-exponential forms buy accuracy at 10x the mixing time
    prob_l2 = CompminimaxProblem("l2", 0.1)
    part_b = all(
        epsilon_compminimax(prob_l2, form, tau_star)[0] > 0.0
        for form in ("linear", "quadratic", "logarithmic")
    )

    # (c) at a one-step budget in the slow-mixing regime the optimum is exact
    part_c = True
    for disc in ("tv", "l2"):
        tiny = CompminimaxProblem(disc, 1e-4)
        for form in ("linear", "quadratic", "logarithmic", "exponential"):
            part_c = part_c and (
                epsilon_compminimax(tiny, form, 1.0)[0] == 0.0
            )

    # (d) the exponential form gives up on approximation at a smaller budget
    taus = np.geomspace(1.0, 1e5, 26)
    prob_tv = CompminimaxProblem("tv", 0.1)

    def last_positive(form: str) -> float:
        rows = curve_epsilon_vs_budget(prob_tv, form, taus)
        positive = [row[0] for row in rows if row[3] > 0.0]
        return max(positive) if positive else 0.0

    part_d = last_positive("exponential") < last_positive("linear")

    elapsed = time.monotonic() - start
    _verdict(
        5,
        "compminimax curve shapes",
        part_a and part_b and part_c and part_d and elapsed < 30.0,
        f"a={part_a} b={part_b} c={part_c} d={part_d}, {elapsed:.1f}s",
    )


def test_criterion_06_multinomial_gaussian_tv_shrinks():
    start = time.monotonic()
    probs = [0.5, 0.3, 0.2]
    tvs = [tv_multinomial_vs_rounded_gaussian(n, probs) for n in (10, 40, 160)]
    elapsed = time.monotonic() - start
    _verdict(
        6,
        "rounded-Gaussian TV nonincreasing and < 0.05 by n=160",
        tvs[0] >= tvs[1] >= tvs[2] and tvs[2] < 0.05 and elapsed < 30.0,
        "tv = " + ", ".join(f"{v:.4f}" for v in tvs),
    )


def test_criterion_07_polya_gamma_moments():
    start = time.monotonic()
    worst = 0.0
    for c in (0.0, 1.0, 2.0, 3.0):
        rng = SeededRng(7, int(c))
        draws = sample_polya_gamma(rng, np.full(100_000, c))
        rel = abs(float(draws.mean()) - polya_gamma_mean(c)) / polya_gamma_mean(c)
        worst = max(worst, rel)
        if c == 1.0:
            _CACHE["pg_draws"] = draws
    elapsed = time.monotonic() - start
    _verdict(
        7,
        "Polya-Gamma empirical means within 1%",
        worst < 0.01 and elapsed < 5.0,
        f"worst rel err {worst:.4%}, {elapsed:.1f}s",
    )


def test_criterion_08_subset_logistic_monotonicity():
    start = time.monotonic()
    res = run_logistic_experiment(dict(LOGISTIC_CFG))
    _CACHE["logistic"] = res
    rmse = [d["rmse"] for d in res["per_size"]]
    w1 = [d["w1"] for d in res["per_size"]]
    full = res["per_size"][-1]["result"]
    bit_exact = np.array_equal(full.trace, res["exact"].trace)
    elapsed = time.monotonic() - start
    _verdict(
        8,
        "subset-logistic errors decrease in |V|; |V|=N exact",
        rmse[0] > rmse[1] > rmse[2] == 0.0
        and w1[0] > w1[1] > w1[2] == 0.0
        and bit_exact
        and elapsed < 120.0,
        f"rmse {rmse[0]:.3g}>{rmse[1]:.3g}>{rmse[2]:.3g}, "
        f"w1 {w1[0]:.3g}>{w1[1]:.3g}>{w1[2]:.3g}, {elapsed:.0f}s",
    )


def test_criterion_09_randomized_eigendecomposition_accuracy():
    start = time.monotonic()
    delta = 1e-3

    def metrics(seed: int, design: str, q: int):
        phi = 30.0 if design == "grid" else 0.1
        X, _, _ = simulate_gp(SeededRng(100 + seed, 0), 200, q, phi, 0.05, 1.0, design)
        S = se_covariance(X, phi)
        fac = randomized_partial_eig(SeededRng(100 + seed, 1), S, delta)
        vals, vecs = np.linalg.eigh(S)
        return eig_accuracy_metrics(vals[::-1], vecs[:, ::-1], fac, SeededRng(100 + seed, 2))

    grid = [metrics(s, "grid", 1) for s in range(20)]
    normal = [metrics(s, "normal", 5) for s in range(20)]
    med_R = float(np.median([m[0] for m in grid]))
    med_C = float(np.median([m[2] for m in grid]))
    min_C = min(m[2] for m in normal)

    hits = 0
    for trial in range(1000):
        rng = SeededRng(5000 + trial, 0)
        X = rng.normal(size=(100, 3))
        S = se_covariance(X, 0.3)
        fac = randomized_partial_eig(SeededRng(5000 + trial, 1), S, delta)
        resid = np.linalg.norm(S - (fac.U * fac.lam) @ fac.U.T, "fro")
        hits += resid <= delta
    _CACHE["gp_factor_seed"] = 5000
    elapsed = time.monotonic() - start
    _verdict(
        9,
        "randomized eigendecomposition accuracy",
        med_C >= 0.99 and med_R <= 1e-6 and min_C >= 0.85 and hits >= 990
        and elapsed < 120.0,
        f"grid median C={med_C:.4f} R={med_R:.2e}, normal min C={min_C:.4f}, "
        f"resid<=delta in {hits}/1000, {elapsed:.0f}s",
    )


def test_criterion_10_bias_variance_crossover():
    start = time.monotonic()
    crossings = 0
    for seed in range(20):
        out = run_budget_experiment(seed)
        (r_c, rmse_c), (r_f, rmse_f) = out[0.05], out[0.001]
        if seed == 0:
            _CACHE["budget"] = out
        ratio = r_f / r_c  # equal cost buys this many extra coarse draws
        early_f = [rmse_f[k] for k in range(20, 41)]
        early_c = [rmse_c[int(ratio * k)] for k in range(20, 41)]
        late_f = [rmse_f[k] for k in range(800, 1201)]
        late_c = [rmse_c[int(ratio * k)] for k in range(800, 1201)]
        if np.mean(early_c) < np.mean(early_f) and np.mean(late_f) < np.mean(late_c):
            crossings += 1
    elapsed = time.monotonic() - start
    _verdict(
        10,
        "coarse factor wins early, fine factor wins late",
        crossings >= 16 and elapsed < 300.0,
        f"{crossings}/20 seeds, {elapsed:.0f}s",
    )


def test_criterion_11_diagnostics_calibration():
    start = time.monotonic()
    a = 0.25  # alpha = 0.5, so the convergence rate is 1 - alpha = 0.5
    P = two_state_symmetric(a)
    nu = FiniteMeasure(np.array([0.5, 0.5]))
    path = simulate_path(SeededRng(21, 0), P, nu, 100_000).astype(float)
    _CACHE["diag_path"] = path
    tr = Trace(path)
    rep = phi_max(tr, k_max=20)
    ess, _ = effective_sample_size(tr)

    x, y, phi, sigma = 0.3, 1.7, 0.8, 2.0
    got = w1_kernel_distance(np.array([x]), np.array([y]), phi=phi, sigma=sigma)
    want = math.sqrt((2.0 - 2.0 * math.exp(-phi * (x - y) ** 2)) / sigma)

    elapsed = time.monotonic() - start
    ok = (
        rep.phi_max is not None
        and abs(rep.phi_max - 0.5) <= 0.05
        and abs(got - want) <= 1e-6
        and abs(ess[0] / tr.t - 1.0 / 3.0) <= 0.05
        and elapsed < 30.0
    )
    _verdict(
        11,
        "diagnostics calibration on the 2-state chain",
        ok,
        f"phi_max={rep.phi_max:.4f}, ess/t={ess[0] / tr.t:.4f}",
    )


def test_criterion_12_stochastic_runs_byte_reproducible():
    start = time.monotonic()
    checks = []

    draws = sample_polya_gamma(SeededRng(7, 1), np.full(100_000, 1.0))
    checks.append(draws.tobytes() == _CACHE["pg_draws"].tobytes())

    res = run_logistic_experiment(dict(LOGISTIC_CFG))
    prev = _CACHE["logistic"]
    checks.append(res["exact"].trace.tobytes() == prev["exact"].trace.tobytes())
    checks.append(
        all(
            a["result"].trace.tobytes() == b["result"].trace.tobytes()
            and np.array_equal(a["result"].audit_tv, b["result"].audit_tv)
            for a, b in zip(res["per_size"], prev["per_size"])
        )
    )

    out = run_budget_experiment(0)
    checks.append(
        all(
            out[d][0] == _CACHE["budget"][d][0]
            and out[d][1].tobytes() == _CACHE["budget"][d][1].tobytes()
            for d in (0.05, 0.001)
        )
    )

    seed = _CACHE["gp_factor_seed"]
    rng = SeededRng(seed, 0)
    S = se_covariance(rng.normal(size=(100, 3)), 0.3)
    f1 = randomized_partial_eig(SeededRng(seed, 1), S, 1e-3)
    f2 = randomized_partial_eig(SeededRng(seed, 1), S, 1e-3)
    checks.append(f1.U.tobytes() == f2.U.tobytes() and f1.lam.tobytes() == f2.lam.tobytes())

    path = simulate_path(
        SeededRng(21, 0),
        two_state_symmetric(0.25),
        FiniteMeasure(np.array([0.5, 0.5])),
        100_000,
    ).astype(float)
    checks.append(path.tobytes() == _CACHE["diag_path"].tobytes())

    elapsed = time.monotonic() - start
    _verdict(
        12,
        "stochastic acceptance runs byte-reproducible",
        all(checks),
        f"{sum(checks)}/{len(checks)} components identical, {elapsed:.0f}s",
    )
