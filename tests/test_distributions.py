"""Seeded variate primitives, including the Polya-Gamma sampler."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from amcmc.distributions import (
    _PG_STEP,
    _PG_T,
    _pg_accept,
    _pg_bracket,
    _pg_left_proposal,
    _pg_p_right,
    _pg_right,
    _pg_table,
    SeededRng,
    polya_gamma_mean,
    sample_dirichlet,
    sample_discrete,
    sample_multinomial,
    sample_mvn,
    sample_polya_gamma,
)


def test_rng_reproducible_and_stream_separated():
    a = SeededRng(42, 0).normal(size=5)
    b = SeededRng(42, 0).normal(size=5)
    c = SeededRng(42, 1).normal(size=5)
    d = SeededRng(43, 0).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_rejects_negative_identity():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(0, -2)


def test_rng_streams_do_not_alias_seeds():
    """Streams occupy the low 16 bits of the Philox key, so a stream of
    2**16 or more would reproduce another seed's stream."""
    with pytest.raises(ValueError):
        SeededRng(0, 65536)
    assert not np.array_equal(SeededRng(0, 65535).normal(size=5), SeededRng(1, 0).normal(size=5))


def test_rng_names_a_seed_past_the_philox_key():
    """Philox keys are below 2**128 and the stream takes 16 bits, so the
    seed has 112.  Past them numpy's own message named the key, not the
    seed."""
    SeededRng(2**112 - 1, 2**16 - 1)
    with pytest.raises(ValueError, match=r"^seed must be below 2\*\*112, got 5192296858534827628530496329220096$"):
        SeededRng(2**112)


def test_rng_is_the_generator_on_its_philox_key():
    """SeededRng(s, k) is a numpy Generator, and draws bit for bit what a
    Generator on the Philox key (s << 16) + k draws."""
    draws = [
        lambda g: g.uniform(size=7),
        lambda g: g.standard_normal(size=7),
        lambda g: g.normal(size=7),
        lambda g: g.multinomial(50, [0.2, 0.3, 0.5]),
        lambda g: g.standard_gamma(np.array([0.3, 1.0, 20.0])),
        lambda g: g.choice(1000, 20, replace=False, shuffle=False),
    ]
    for s, k in [(0, 0), (42, 1), (7, 2**16 - 1), (2**112 - 1, 2**16 - 1)]:
        rng = SeededRng(s, k)
        ref = np.random.Generator(np.random.Philox(key=(s << 16) + k))
        assert isinstance(rng, np.random.Generator)
        for draw in draws:
            assert draw(rng).tobytes() == draw(ref).tobytes()


# ---------------------------------------------------------------------------
# simplex / counting draws
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.05, 20.0), min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_dirichlet_on_simplex(conc):
    x = sample_dirichlet(SeededRng(1), conc)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(x >= 0.0)


def test_dirichlet_mean():
    conc = np.array([2.0, 3.0, 5.0])
    rng = SeededRng(10)
    draws = np.array([sample_dirichlet(rng, conc) for _ in range(20000)])
    assert draws.mean(axis=0) == pytest.approx(conc / conc.sum(), abs=0.01)


def test_dirichlet_underflow_row_replays_the_row_loop():
    """A row whose Gamma variates all underflow takes the one-coordinate
    fallback; the other rows and the fallback's coordinate draw consume the
    variates of one 1-D call per row on the same generator."""
    conc = np.full((3, 3), 2.0)
    conc[1] = 1e-300
    for seed in range(5):
        rng = SeededRng(seed)
        want = np.array([sample_dirichlet(rng, row) for row in conc])
        assert np.count_nonzero(want[1]) == 1 and want[1].sum() == 1.0
        got_rng = SeededRng(seed)
        assert np.array_equal(sample_dirichlet(got_rng, conc), want)
        assert np.array_equal(got_rng.uniform(size=3), rng.uniform(size=3))


def _dirichlet_by_gamma(gen, conc):
    """Dirichlet rows drawn with Generator.gamma, one row of ``conc`` at a
    time in C order; a row whose variates all underflow puts its mass on one
    coordinate drawn uniformly right after them."""
    rows = conc.reshape(-1, conc.shape[-1])
    out = np.zeros_like(rows)
    fallbacks = 0
    for i, row in enumerate(rows):
        g = gen.gamma(row)
        total = g.sum()
        if total == 0.0:
            fallbacks += 1
            out[i, int(gen.integers(len(row)))] = 1.0
        else:
            out[i] = g / total
    return out.reshape(conc.shape), fallbacks


def test_dirichlet_draws_the_variates_of_generator_gamma():
    """On 200 seeds, one to three arrays of random shapes, with
    concentrations log-uniform from 1e-300 to 1e150 and some rows all at
    1e-300: sample_dirichlet returns the rows Generator.gamma draws, array
    after array, zero-total fallbacks included, and leaves the generator
    where they leave it."""
    gen = np.random.default_rng(24)
    fallbacks = 0
    for seed in range(200):
        concs = []
        for _ in range(int(gen.integers(1, 4))):
            shape = tuple(int(k) for k in gen.integers(1, 6, size=int(gen.integers(1, 4))))
            conc = 10.0 ** gen.uniform(-300.0, 150.0, size=shape)
            rows = conc.reshape(-1, shape[-1])
            rows[gen.random(len(rows)) < 0.2] = 1e-300
            concs.append(conc)
        got_rng, ref_rng = SeededRng(seed), SeededRng(seed)
        want = []
        for conc in concs:
            draw, hits = _dirichlet_by_gamma(ref_rng, conc)
            want.append(draw)
            fallbacks += hits
        got = sample_dirichlet(got_rng, *concs)
        got = [got] if len(concs) == 1 else list(got)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w), seed
        assert got_rng.uniform() == ref_rng.uniform(), seed
    assert fallbacks >= 20


def test_dirichlet_rejects_nonpositive():
    with pytest.raises(ValueError):
        sample_dirichlet(SeededRng(0), [1.0, 0.0])


@given(
    n=st.integers(0, 500),
    probs=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_multinomial_counts(n, probs):
    p = np.array(probs)
    p /= p.sum()
    counts = sample_multinomial(SeededRng(2), n, p)
    assert counts.sum() == n
    assert np.all(counts >= 0)


def test_multinomial_moments():
    p = np.array([0.5, 0.3, 0.2])
    rng = SeededRng(3)
    draws = np.array([sample_multinomial(rng, 100, p) for _ in range(20000)])
    assert draws.mean(axis=0) == pytest.approx(100 * p, rel=0.02)
    assert draws[:, 0].var() == pytest.approx(100 * 0.5 * 0.5, rel=0.05)


def test_multinomial_validation():
    with pytest.raises(ValueError):
        sample_multinomial(SeededRng(0), -1, [0.5, 0.5])
    with pytest.raises(ValueError):
        sample_multinomial(SeededRng(0), 3, [0.5, 0.6])


# ---------------------------------------------------------------------------
# Gaussian draws
# ---------------------------------------------------------------------------


def test_mvn_moments():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    rng = SeededRng(4)
    draws = np.array([sample_mvn(rng, mean, cov) for _ in range(30000)])
    assert draws.mean(axis=0) == pytest.approx(mean, abs=0.03)
    assert np.cov(draws.T) == pytest.approx(cov, abs=0.05)


def test_mvn_semidefinite_ok():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    x = sample_mvn(SeededRng(5), np.zeros(2), cov)
    assert x[0] == pytest.approx(x[1], abs=1e-10)


def test_mvn_validation():
    with pytest.raises(ValueError):
        sample_mvn(SeededRng(0), np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sample_mvn(SeededRng(0), np.zeros(2), -np.eye(2))


def test_discrete_frequencies():
    p = np.array([0.1, 0.2, 0.7])
    rng = SeededRng(8)
    draws = np.array([sample_discrete(rng, p) for _ in range(20000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert freq == pytest.approx(p, abs=0.01)
    with pytest.raises(ValueError):
        sample_discrete(rng, [0.0, 0.0])


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [np.inf, 1.0], [1.0, -np.inf], [0.5, -0.5, 1.0], []])
def test_discrete_refuses_weights_without_a_finite_positive_sum(weights):
    """A NaN or an infinite weight once gave index 0 with no error."""
    rng = SeededRng(8)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sample_discrete(rng, weights)
    assert rng.uniform() == SeededRng(8).uniform()  # nothing drawn


# ---------------------------------------------------------------------------
# Polya-Gamma
# ---------------------------------------------------------------------------


def test_pg_mean_function():
    assert polya_gamma_mean(0.0) == 0.25
    assert polya_gamma_mean(2.0) == pytest.approx(math.tanh(1.0) / 4.0)


def _pg_series_weights(c: float, terms: int) -> np.ndarray:
    """Weights d_k of PG(1, c) = sum_k d_k g_k with g_k ~ Exp(1) iid."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    return 1.0 / (2.0 * np.pi**2 * ((k - 0.5) ** 2 + c * c / (4.0 * np.pi**2)))


def test_pg_variance_closed_form():
    """Var PG(1, c) = (sinh c - c) / (4 c^3 cosh^2(c/2)), 1/24 at c = 0.
    The tolerance is 5 standard errors of the sample variance, from the
    series cumulants kappa_2 = sum d_k^2 and kappa_4 = 6 sum d_k^4."""
    n = 200_000
    for c in (0.0, 0.5, 2.0, 10.0):
        want = 1.0 / 24.0 if c == 0.0 else (math.sinh(c) - c) / (4.0 * c**3 * math.cosh(c / 2.0) ** 2)
        d = _pg_series_weights(c, 100_000)
        k2, k4 = (d**2).sum(), 6.0 * (d**4).sum()
        assert k2 == pytest.approx(want, rel=1e-4)
        tol = 5.0 * math.sqrt((k4 + 2.0 * k2 * k2) / n)
        draws = sample_polya_gamma(SeededRng(15, int(c)), np.full(n, c))
        assert abs(draws.var() - want) < tol, (c, draws.var(), want, tol)


def test_pg_matches_long_series_in_law():
    """Two-sample KS against draws of the series truncated at 2000 terms,
    with the analytic mean of the dropped tail added back."""
    ref_rng = np.random.default_rng(16)
    for c in (0.0, 1.5, 8.0):
        d = _pg_series_weights(c, 2000)
        ref = np.concatenate([ref_rng.exponential(size=(1000, 2000)) @ d for _ in range(10)])
        ref += polya_gamma_mean(c) - d.sum()
        draws = sample_polya_gamma(SeededRng(16, int(c)), np.full(10_000, c))
        assert stats.ks_2samp(draws, ref).pvalue > 1e-3, c


def test_pg_depends_on_tilt_magnitude_only():
    c = np.linspace(-40.0, 40.0, 801)
    assert np.array_equal(sample_polya_gamma(SeededRng(17), c), sample_polya_gamma(SeededRng(17), -c))


def test_pg_rejects_nonfinite_tilt():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sample_polya_gamma(SeededRng(18), np.array([1.0, bad]))


def test_pg_draws_positive_and_reproducible():
    c = np.concatenate([np.zeros(1000), np.geomspace(1e-3, 500.0, 1000)])
    draws = sample_polya_gamma(SeededRng(9), c)
    assert np.all(draws > 0.0)
    again = sample_polya_gamma(SeededRng(9), c)
    assert np.array_equal(draws, again)


def test_pg_scalar_matches_length_one_vector():
    a = sample_polya_gamma(SeededRng(12), 1.5)
    b = sample_polya_gamma(SeededRng(12), np.array([1.5]))
    assert isinstance(a, float)
    assert a == b[0]


def test_pg_empirical_mean_small():
    rng = SeededRng(13)
    draws = sample_polya_gamma(rng, np.full(30000, 1.0))
    assert draws.mean() == pytest.approx(polya_gamma_mean(1.0), rel=0.02)


def test_pg_mean_decreasing_in_tilt():
    rng = SeededRng(14)
    means = [sample_polya_gamma(rng, np.full(20000, c)).mean() for c in (0.0, 1.0, 3.0)]
    assert means[0] > means[1] > means[2]



def _truncated_ig_cdf(x: np.ndarray, z: float) -> np.ndarray:
    """P(X <= x | X <= t) for X ~ IG(1/z, 1), the Levy law at z = 0:
    F(x) = Phi(sqrt(1/x)(xz - 1)) + e^{2z} Phi(-sqrt(1/x)(xz + 1)) over F(t),
    the second term through log Phi so that e^{2z} cannot overflow."""
    from scipy.special import log_ndtr

    def cdf(v):
        r = np.sqrt(1.0 / v)
        return np.exp(log_ndtr(r * (v * z - 1.0))) + np.exp(2.0 * z + log_ndtr(-r * (v * z + 1.0)))

    return cdf(x) / cdf(_PG_T)


@pytest.mark.parametrize("z", [0.0, 0.3, 1.5, 1.0 / _PG_T, 1.7, 8.0, 1e3])
def test_pg_left_piece_is_the_truncated_inverse_gaussian(z):
    """One-sample KS of the left envelope piece against its CDF, on both
    proposal regimes (z < 1/t: the Levy law thinned; z >= 1/t: the inverse
    Gaussian kept below t) and at their boundary z = 1/t."""
    x = _pg_left_proposal(SeededRng(21), np.full(20_000, z))
    assert np.all((0.0 < x) & (x <= _PG_T))
    assert stats.kstest(x, lambda v: _truncated_ig_cdf(v, z)).pvalue > 1e-3


def _series_coef(n: int, x: np.ndarray) -> np.ndarray:
    """Coefficient a_n(x) of the alternating series for the density of
    J*(1, 0) as Devroye writes it: the small-x form on (0, t], the large-x
    form above t."""
    k = math.pi * (n + 0.5)
    small = np.exp(math.log(k) - 1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x <= _PG_T, small, k * np.exp(-0.5 * k * k * x))


def _full_series_accept(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Devroye's alternating-series test in its coefficient form: u a_0(x)
    against the partial sums of a_n(x), until every entry is decided."""
    s = _series_coef(0, x)
    y = u * s
    accepted = np.zeros(x.size, dtype=bool)
    live = np.ones(x.size, dtype=bool)
    for n in range(1, 40):
        if n % 2:
            s = s - _series_coef(n, x)
            accepted |= live & (y <= s)
            live &= y > s
        else:
            s = s + _series_coef(n, x)
            live &= y <= s
    assert not live.any()
    return accepted


def test_pg_ratio_shortcut_decides_like_the_full_series():
    """The test on ratios a_n / a_0, whose first partial sum decides almost
    every proposal, reaches the full series' decision on a grid of x either
    side of t and u up to 1: uniform u, u just below 1, and u placed among
    the first partial sums (between 1 - a_1/a_0 and 1 - a_1/a_0 + a_2/a_0,
    where a third term decides, and above that sum).  The only exception
    allowed is u within 1e-12 of 1 - a_1/a_0, where the two forms round
    differently."""
    x = np.concatenate([np.geomspace(0.05, _PG_T, 300), np.nextafter(_PG_T, 1.0) + np.geomspace(1e-12, 2.5, 300)])
    a0, a1, a2 = (_series_coef(n, x) for n in range(3))
    first = (1.0 - a1 / a0)[:, None]
    u = np.concatenate([
        np.broadcast_to(np.linspace(0.0, 1.0, 2001), (x.size, 2001)),
        np.broadcast_to(1.0 - np.geomspace(1e-16, 1e-2, 400), (x.size, 400)),
        np.minimum(first + np.array([0.25, 0.5, 0.75, 2.0, 10.0]) * (a2 / a0)[:, None], 1.0),
    ], axis=1)
    first = np.broadcast_to(first, u.shape).ravel()
    u, xx = u.ravel(), np.broadcast_to(x[:, None], u.shape).ravel()
    got, want = _pg_accept(u, xx), _full_series_accept(u, xx)
    away = np.abs(u - first) > 1e-12
    assert np.array_equal(got[away], want[away])
    # the grid reaches the terms past the first, with both outcomes
    beyond = away & (u > first)
    assert got[beyond].any() and not got[beyond].all()


# ---------------------------------------------------------------------------
# Polya-Gamma piece choice: the table against the scipy.special form
# ---------------------------------------------------------------------------


def _scipy_p_right(z: np.ndarray) -> np.ndarray:
    """The envelope masses' p / (p + q) as scipy.special forms them, through
    log_ndtr, logaddexp and expit."""
    from scipy.special import expit, log_ndtr

    rate = 0.125 * math.pi**2 + 0.5 * z * z
    rt = math.sqrt(_PG_T)
    log_q_over_p = (
        math.log(4.0 / math.pi)
        + np.log(rate)
        + rate * _PG_T
        + np.logaddexp(log_ndtr((_PG_T * z - 1.0) / rt) - z, log_ndtr(-(_PG_T * z + 1.0) / rt) + z)
    )
    return expit(-log_q_over_p)


def test_pg_table_is_strictly_decreasing():
    lo, hi = _pg_table()
    ends = np.array([_pg_p_right(k / _PG_STEP) for k in range(lo.size + 1)])
    assert np.all(np.diff(ends) < 0.0)
    assert np.all(lo < hi)
    # a bracket spans its cell's two end values
    assert np.all(lo <= ends[1:]) and np.all(ends[:-1] <= hi)


def test_pg_table_brackets_contain_the_scipy_form():
    """On a dense grid up to z = 40, every z of the table lies in a cell
    whose bracket contains the scipy form's p_right; beyond the table the
    exact scalar form is within 1e-13 of it (both lose about |log(q/p)|
    ulp; 1.4e-14 measured) and below the smallest nonzero uniform, 2^-53."""
    lo, hi = _pg_table()
    z = np.concatenate([np.linspace(0.0, 40.0, 2_000_001), np.arange(lo.size + 1) / _PG_STEP])
    want = _scipy_p_right(z)
    k = (z * _PG_STEP).astype(np.intp)
    inside = k < lo.size
    assert np.all(lo[k[inside]] <= want[inside]) and np.all(want[inside] <= hi[k[inside]])
    beyond = np.linspace(lo.size / _PG_STEP, 40.0, 28_001)
    got = np.array([_pg_p_right(float(v)) for v in beyond])
    np.testing.assert_allclose(got, _scipy_p_right(beyond), rtol=1e-13, atol=0.0)
    assert np.all(got < 2.0**-53)


def test_pg_choice_equals_the_scipy_form_on_a_million_decisions():
    """u < p_right(z) from the per-call bracket (the table's cell, or the
    exact scalar beyond it, and the exact scalar where the bracket cannot
    decide) equals the scipy form's decision: z from the tilts a
    chain sees, from cell edges and from beyond the table; u uniform, and
    u placed 1e-11 (relative) either side of p_right, inside the table's
    margin but outside the 1.4e-14 the two forms differ by."""
    g = np.random.default_rng(20)
    z = np.concatenate([
        0.5 * np.abs(g.normal(0.0, 2.4, 800_000)),
        g.uniform(0.0, 40.0, 150_000),
        g.integers(0, 12 * _PG_STEP + 1, 50_000) / _PG_STEP,
    ])
    u = g.uniform(size=z.size)
    assert np.array_equal(_pg_right(u, z, *_pg_bracket(z)), u < _scipy_p_right(z))
    near = z[g.choice(z.size, 20_000, replace=False)]
    p = _scipy_p_right(near)
    for u in (p * (1.0 - 1e-11), p * (1.0 + 1e-11)):
        assert np.array_equal(_pg_right(u, near, *_pg_bracket(near)), u < p)


def test_pg_p_right_finite_for_huge_tilts():
    """The exact scalar form never overflows: its log-odds stay in log
    space and it reads 0 once the exponential rate overflows."""
    for c in (24.0, 1e3, 1e10, 1e100, 1e154, 1e155, 1e200, 1e300, 1.7e308):
        p = _pg_p_right(0.5 * c)
        assert math.isfinite(p) and 0.0 <= p < 2.0**-53, (c, p)
    assert _pg_p_right(0.5 * 1e300) == 0.0


def test_pg_huge_tilts_draw_without_warnings():
    """Tilts whose rate c^2 / 8, table index or series exponent overflow
    to inf, as intended, draw with no RuntimeWarning; PG(1, c) then sits
    at its mean 1 / (2|c|) to the last bit while 2|c| x is finite."""
    for c in (1e155, 1e200, 1e300, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sample_polya_gamma(SeededRng(19), np.array([c, -c]))
        assert np.all(x > 0.0) and np.all(np.isfinite(x)), c
        if c < 1e308:
            assert np.all(np.abs(2.0 * c * x - 1.0) <= 2.2e-16), c


def test_pg_huge_tilts_return():
    """Tilts past about 1e162 once made the inverse Gaussian's larger root
    mu^2 / x underflow to 0 and the acceptance loop spin forever; the draws
    run in a fresh process under a timeout, so a regression fails here
    instead of hanging the suite."""
    import amcmc

    code = (
        "import numpy as np, warnings; warnings.simplefilter('error')\n"
        "from amcmc.distributions import SeededRng, sample_polya_gamma\n"
        "c = np.repeat([1e160, 1e165, 1e200, 1e300, 1.7e308], 20)\n"
        "x = sample_polya_gamma(SeededRng(3), c)\n"
        "assert (x > 0).all() and np.isfinite(x).all()\n"
        "print(np.abs(c * x * 2.0 - 1.0).max())\n"
    )
    env = dict(os.environ)
    root = str(Path(amcmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # PG(1, c) concentrates at its mean tanh(c/2) / (2c) = 1 / (2c) for huge c
    assert float(proc.stdout) <= 5e-16
