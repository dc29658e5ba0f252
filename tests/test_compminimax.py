"""Budget-constrained minimization of the error bounds over epsilon."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcmc.bounds as bounds
import amcmc.compminimax as cmx
from amcmc.bounds import (
    BoundInputs,
    ErgodicityParams,
    l2_bound_approx,
    tv_bound_approx,
    tv_bound_exact,
    variance_factor,
)
from amcmc.compminimax import (
    CURVE_CSV_HEADER,
    CompminimaxProblem,
    SpeedupFn,
    curve_epsilon_vs_budget,
    epsilon_compminimax,
    speedup_eval,
)

FORMS = ("logarithmic", "linear", "quadratic", "exponential")


# ---------------------------------------------------------------------------
# speedup functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("form", FORMS)
def test_speedup_endpoints(form):
    fn = SpeedupFn(form, 0.3)
    assert fn(0.0) == pytest.approx(1.0)
    assert fn(0.15) == pytest.approx(100.0)


@pytest.mark.parametrize("form", FORMS)
def test_speedup_monotone(form):
    fn = SpeedupFn(form, 0.2)
    grid = np.linspace(0.0, 0.1, 200)
    vals = [fn(float(e)) for e in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_speedup_ordering_at_midpoint():
    """At u = 1/2: log2(1.5) > 1/2 > 1/4 and 10 = 100^(1/2), so
    logarithmic > linear > quadratic and the exponential form trails."""
    alpha = 0.4
    eps = 0.1  # u = 1/2
    vals = {f: speedup_eval(SpeedupFn(f, alpha), eps) for f in FORMS}
    assert vals["logarithmic"] > vals["linear"] > vals["quadratic"] > vals["exponential"]
    assert vals["linear"] == pytest.approx(50.5)
    assert vals["exponential"] == pytest.approx(10.0)


def test_speedup_constant_form():
    fn = SpeedupFn("constant", 0.2)
    assert fn(0.0) == 1.0 and fn(0.09) == 1.0


def test_speedup_validation():
    with pytest.raises(ValueError):
        SpeedupFn("cubic", 0.2)
    with pytest.raises(ValueError):
        SpeedupFn("linear", 1.5)
    with pytest.raises(ValueError):
        speedup_eval(SpeedupFn("linear", 0.2), 0.11)  # beyond alpha / 2
    with pytest.raises(ValueError):
        speedup_eval(SpeedupFn("linear", 0.2), -1e-9)


def test_speedup_domain_error_names_the_offending_extreme():
    fn = SpeedupFn("linear", 0.2)
    with pytest.raises(ValueError) as info:
        speedup_eval(fn, np.linspace(0.0, 0.3, 2000))
    assert str(info.value) == "eps=0.3 outside the speedup domain [0, 0.1]"
    with pytest.raises(ValueError) as info:
        speedup_eval(fn, np.linspace(-1e-9, 0.05, 2000))
    assert str(info.value) == "eps=-1e-09 outside the speedup domain [0, 0.1]"


# ---------------------------------------------------------------------------
# the minimization itself
# ---------------------------------------------------------------------------


def test_bound_at_zero_epsilon_is_exact_bound():
    p = CompminimaxProblem("tv", 0.25, tv0=0.4, tv0_eps=0.4)
    assert p.bound_at(0.0, 7) == tv_bound_exact(0.25, BoundInputs(t=7, tv0=0.4))


def test_constant_speedup_never_pays():
    """With no speedup there is no reason to accept any bias."""
    for disc in ("tv", "l2"):
        p = CompminimaxProblem(disc, 0.1)
        eps_c, t_opt, _ = epsilon_compminimax(p, "constant", 437.0)
        assert eps_c == 0.0
        assert t_opt == 437


def test_argmin_beats_grid():
    p = CompminimaxProblem("tv", 0.1, grid_size=400)
    fn = SpeedupFn("linear", 0.1)
    eps_c, t_opt, best = epsilon_compminimax(p, "linear", 437.0)
    # independent re-scan of the same grid
    grid = np.linspace(0.0, 0.05 * (1.0 - 1e-9), 400)
    for eps in grid:
        t = max(1, math.floor(speedup_eval(fn, float(eps)) * 437.0))
        assert best <= p.bound_at(float(eps), t) + 1e-15
    assert best == pytest.approx(p.bound_at(eps_c, t_opt))


@given(tau=st.floats(1.0, 1e4), alpha=st.floats(0.02, 0.9))
@settings(max_examples=30, deadline=None)
def test_minimum_never_above_exact_baseline(tau, alpha):
    p = CompminimaxProblem("l2", alpha, grid_size=200)
    for form in ("linear", "exponential"):
        _, _, best = epsilon_compminimax(p, form, tau)
        baseline = p.bound_at(0.0, max(1, math.floor(tau)))
        assert best <= baseline + 1e-12


def test_curve_rows_and_header():
    p = CompminimaxProblem("tv", 0.1, grid_size=100)
    taus = [1.0, 10.0, 100.0]
    rows = curve_epsilon_vs_budget(p, "linear", taus)
    assert len(rows) == 3
    assert len(CURVE_CSV_HEADER) == len(rows[0])
    assert [r[0] for r in rows] == taus
    assert all(r[1] == "linear" and r[2] == 0.1 for r in rows)


def test_curve_requires_sorted_budgets():
    p = CompminimaxProblem("tv", 0.1, grid_size=50)
    with pytest.raises(ValueError):
        curve_epsilon_vs_budget(p, "linear", [10.0, 1.0])
    # equal neighbours are fine
    curve_epsilon_vs_budget(p, "linear", [1.0, 1.0, 2.0])


def test_problem_validation():
    with pytest.raises(ValueError):
        CompminimaxProblem("kl", 0.1)
    with pytest.raises(ValueError):
        epsilon_compminimax(CompminimaxProblem("tv", 0.1), "linear", 0.5)
    with pytest.raises(ValueError):
        CompminimaxProblem("tv", 0.1, grid_size=1)


def test_search_takes_the_speedup_alpha_from_the_problem():
    """s(eps) is built on the problem's own alpha: at alpha = 0.1 a budget
    of 1000 buys a positive eps."""
    eps_c, t_opt, _ = epsilon_compminimax(CompminimaxProblem("tv", 0.1), "linear", 1000.0)
    assert t_opt == 1396 and eps_c == pytest.approx(2.0e-4, rel=1e-3)


def test_tie_break_toward_smallest_epsilon():
    """A flat objective (constant speedup, huge t so the bound saturates)
    must return the first grid point."""
    p = CompminimaxProblem("tv", 0.5, tv0=0.0, tv0_eps=0.0, grid_size=50)
    # tv0 = 0 makes the exact bound 0 at eps = 0 and eps/alpha > 0 otherwise
    eps_c, _, best = epsilon_compminimax(p, "constant", 1e9)
    assert eps_c == 0.0 and best == 0.0


# ---------------------------------------------------------------------------
# the array argmin against the scalar loop it replaced
# ---------------------------------------------------------------------------


def _scalar_bound(p, eps, t):
    """The bounds one grid point at a time, in math-module arithmetic, with
    the variance factor as the closed form for alpha t >= 1/2 and the sum
    over off-diagonal bands below it."""

    def pow_1m(a, s):
        return math.exp(s * math.log1p(-a))

    def cesaro(a, tv0):
        return (1.0 - pow_1m(a, t)) * tv0 / (a * t)

    def var(a):
        if a * t < 0.5:
            d = np.arange(1, t, dtype=np.float64)
            return (t + 2.0 * float(((t - d) * np.exp(d * math.log1p(-a))).sum())) / (t * t)
        a2t2 = a * a * t * t
        return 2 / (a * t) + 2 / (a * t * t) + 2 * pow_1m(a, t + 1) / a2t2 - 1 / t - 2 / a2t2

    alpha, a_eps, f2 = p.alpha, p.alpha - 2.0 * eps, p.fstar * p.fstar
    if p.discrepancy == "tv":
        return cesaro(alpha, p.tv0) if eps == 0.0 else eps / alpha + cesaro(a_eps, p.tv0_eps)
    if eps == 0.0:
        return 4.0 * f2 * cesaro(alpha, p.tv0) + f2 * var(alpha)
    return (
        4.0 * f2 * cesaro(a_eps, p.tv0_eps)
        + f2 * var(a_eps)
        + 8.0 * f2 * eps * (1.0 - pow_1m(a_eps, t)) / (t * alpha * a_eps)
        + 4.0 * eps * eps * f2 / (alpha * alpha)
    )


def _scalar_compminimax(p, fn, tau):
    """The grid search as a loop: first strict improvement wins."""
    best = (0.0, 0, math.inf)
    for eps in np.linspace(0.0, 0.5 * p.alpha * (1.0 - 1e-9), p.grid_size).tolist():
        u = 2.0 * eps / p.alpha
        s = {
            "linear": 1.0 + 99.0 * u,
            "quadratic": 1.0 + 99.0 * u * u,
            "logarithmic": 1.0 + 99.0 * math.log2(1.0 + u),
            "exponential": 100.0**u,
            "constant": 1.0,
        }[fn.form]
        t = max(1, math.floor(s * tau))
        b = _scalar_bound(p, eps, t)
        if b < best[2]:
            best = (eps, t, b)
    return best


@pytest.mark.parametrize("disc", ["tv", "l2"])
def test_array_argmin_matches_scalar_loop(disc):
    # budgets up to 1e3 keep the loop's band sums below 10^5 terms
    problems = [
        (CompminimaxProblem(disc, alpha, tv0=0.7, tv0_eps=0.9, fstar=1.3, grid_size=300), tau)
        for alpha in (0.02, 0.1, 0.37)
        for tau in np.geomspace(1.0, 1e3, 5).tolist()
    ]
    # ties: fstar = 0 makes every l2 bound 0, and the first grid point wins
    problems.append((CompminimaxProblem(disc, 0.5, tv0=0.0, tv0_eps=0.0, fstar=0.0, grid_size=50), 1e3))
    for p, tau in problems:
        for form in FORMS + ("constant",):
            fn = SpeedupFn(form, p.alpha)
            eps_c, t_opt, bound = epsilon_compminimax(p, form, tau)
            ref_eps, ref_t, ref_bound = _scalar_compminimax(p, fn, tau)
            assert (eps_c, t_opt) == (ref_eps, ref_t), (p, form)
            assert bound == pytest.approx(ref_bound, rel=1e-15, abs=0.0), (p, form)
    # the curve: every budget of one alpha in one call, row by row against
    # the loop at that budget
    for alpha, p in {q.alpha: q for q, _ in problems}.items():
        taus = [tau for q, tau in problems if q.alpha == alpha]
        for form in FORMS + ("constant",):
            fn = SpeedupFn(form, p.alpha)
            for tau, row in zip(taus, curve_epsilon_vs_budget(p, form, taus), strict=True):
                ref_eps, ref_t, ref_bound = _scalar_compminimax(p, fn, tau)
                assert row[:5] == (tau, form, p.alpha, ref_eps, ref_t), (p, tau, form)
                assert row[5] == pytest.approx(ref_bound, rel=1e-15, abs=0.0), (p, tau, form)


def test_speedup_and_bound_broadcast():
    p = CompminimaxProblem("l2", 0.2, tv0=0.4, tv0_eps=0.6)
    eps = np.linspace(0.0, 0.0999, 7)
    t = np.arange(1, 8) * 13
    for form in FORMS:
        fn = SpeedupFn(form, 0.2)
        assert speedup_eval(fn, eps).tolist() == [speedup_eval(fn, float(e)) for e in eps]
    assert p.bound_at(eps, t).tolist() == [p.bound_at(float(e), int(k)) for e, k in zip(eps, t)]


# ---------------------------------------------------------------------------
# one bound call per block of budgets
# ---------------------------------------------------------------------------


def _two_mask_bound_at(p, eps, t):
    """bound_at before the exact bounds became the approximate ones at
    eps = 0: the exact chain's own forms from tv0 where eps = 0, the
    approximate bound from tv0_eps elsewhere, stitched together."""
    eps, t = np.broadcast_arrays(eps, t)
    exact = eps == 0.0
    te = t[exact].astype(np.float64)
    cesaro = (1.0 - np.exp(te * np.log1p(-p.alpha))) * p.tv0 / (p.alpha * te)
    params = ErgodicityParams(p.alpha, eps[~exact])
    out = np.empty(eps.shape)
    if p.discrepancy == "tv":
        out[exact] = cesaro
        out[~exact] = tv_bound_approx(params, t[~exact], p.tv0_eps)
    else:
        f2 = p.fstar * p.fstar
        out[exact] = 4.0 * f2 * cesaro + f2 * variance_factor(te, p.alpha)
        out[~exact] = l2_bound_approx(params, t[~exact], p.tv0_eps, p.fstar)
    return out


@pytest.mark.parametrize("disc", ["tv", "l2"])
def test_bound_at_equals_the_two_mask_split_on_the_cli_grid(disc):
    """The CLI's default grid (2000 eps, path lengths for 30 budgets), for
    budgets up to 1e5 (the default) and 1e15 (the largest allowed)."""
    for alpha in (1e-150, 1e-9, 0.02, 0.1, 0.999):
        grid = np.linspace(0.0, 0.5 * alpha * (1.0 - 1e-9), 2000)
        for tv0, tv0_eps, fstar in ((1.0, 1.0, 1.0), (0.3, 0.7, 2.5), (0.0, 0.0, 0.0), (0.4, 0.9, 1e150)):
            p = CompminimaxProblem(disc, alpha, tv0=tv0, tv0_eps=tv0_eps, fstar=fstar)
            for form in FORMS + ("constant",):
                s = speedup_eval(SpeedupFn(form, alpha), grid)
                for tau_max in (1e5, 1e15):
                    taus = np.geomspace(1.0, tau_max, 30)[:, None]
                    t = np.maximum(1, np.floor(s * taus)).astype(np.int64)
                    got, want = p.bound_at(grid, t), _two_mask_bound_at(p, grid, t)
                    assert np.array_equal(got, want), (alpha, tv0, tv0_eps, fstar, form, tau_max)


@pytest.mark.parametrize("disc", ["tv", "l2"])
def test_curve_memory_does_not_grow_with_the_budget_count(disc):
    """3000 budgets (each of 30 repeated 100 times) run in blocks: the
    traced peak stays within 1.5x that of the 30 budgets alone, and the
    rows are the 30 rows, each repeated."""
    p = CompminimaxProblem(disc, 0.1)
    taus = np.geomspace(1.0, 1e5, 30).tolist()

    def traced(budgets):
        tracemalloc.start()
        try:
            rows = curve_epsilon_vs_budget(p, "linear", budgets)
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, few_peak = traced(taus)
    many, many_peak = traced(np.repeat(taus, 100).tolist())
    assert many == [row for row in few for _ in range(100)]
    assert many_peak <= 1.5 * few_peak, (few_peak, many_peak)


def test_compminimax_keeps_the_names_the_traced_benchmark_wraps(monkeypatch):
    """The traced calculus round (perfbench/cli_launch.py) wraps these five
    names in amcmc.compminimax and reads ``.discrepancy`` from the first
    argument of curve_epsilon_vs_budget.  tv_bound_exact and
    l2_bound_exact are imported there for those wraps alone."""
    for name in ("tv_bound_exact", "tv_bound_approx", "l2_bound_exact", "l2_bound_approx"):
        assert getattr(cmx, name) is getattr(bounds, name), name
    assert callable(cmx.curve_epsilon_vs_budget)
    # the search looks the approximate bounds up in the module at call
    # time, so a wrap placed there sees every call
    for disc, name in (("tv", "tv_bound_approx"), ("l2", "l2_bound_approx")):
        calls = []
        original = getattr(cmx, name)
        monkeypatch.setattr(cmx, name, lambda *a, _f=original: calls.append(1) or _f(*a))
        p = CompminimaxProblem(disc, 0.1, grid_size=50)
        assert p.discrepancy == disc
        cmx.curve_epsilon_vs_budget(p, "linear", [1.0, 10.0])
        assert calls == [1], disc
