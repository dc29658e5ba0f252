"""Oracle and property tests for the closed-form bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc.bounds import (
    BoundInputs,
    ErgodicityParams,
    clamp_tv,
    l2_bound_approx,
    l2_bound_exact,
    mixing_time_bound,
    stationary_bias_bound,
    tv_bound_approx,
    tv_bound_exact,
    variance_factor,
)


def variance_factor_bruteforce(t: int, alpha: float) -> float:
    """Independent O(t^2) oracle: the literal normalized double sum."""
    j = np.arange(t)
    return float(np.power(1.0 - alpha, np.abs(j[:, None] - j[None, :])).sum()) / (
        t * t
    )


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_variance_factor_frozen_value():
    # S(2, 1/2) = (1/4) * (2 + 2 * (1/2)) = 3/4
    assert variance_factor(2, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_tv_bound_exact_frozen_value():
    # alpha = 1/2, t = 2, tv0 = 1/2: (1 - 1/4) * (1/2) / (1/2 * 2) = 3/8
    got = tv_bound_exact(0.5, BoundInputs(t=2, tv0=0.5))
    assert got == pytest.approx(0.375, abs=1e-15)


def test_l2_bound_exact_frozen_values():
    # t = 2, alpha = 1/2, tv0 = 1/2, fstar = 1: 4 * 3/8 + 3/4 = 9/4... with
    # fstar = 1 the two pieces are 1.5 + 0.75
    got = l2_bound_exact(0.5, BoundInputs(t=2, tv0=0.5, fstar=1.0))
    assert got == pytest.approx(2.25, abs=1e-14)
    # t = 1 collapses to 4 tv0 + 1 per unit fstar^2
    got = l2_bound_exact(0.5, BoundInputs(t=1, tv0=0.5, fstar=1.0))
    assert got == pytest.approx(3.0, abs=1e-14)
    got = l2_bound_exact(0.5, BoundInputs(t=1, tv0=0.69, fstar=1.3))
    assert got == pytest.approx((4.0 * 0.69 + 1.0) * 1.69, abs=1e-12)


def test_mixing_time_endpoints():
    assert mixing_time_bound(0.1, 0.01) == pytest.approx(43.708, abs=0.01)
    assert mixing_time_bound(1e-4, 1e-4) == pytest.approx(92098.8, abs=0.5)


# ---------------------------------------------------------------------------
# variance factor vs the brute-force double sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1e-4, 0.01, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("t", [1, 2, 7, 64, 500])
def test_variance_factor_matches_double_sum(alpha, t):
    assert variance_factor(t, alpha) == pytest.approx(
        variance_factor_bruteforce(t, alpha), abs=1e-12
    )


@given(
    alpha=st.floats(1e-5, 1.0 - 1e-9, exclude_max=True),
    t=st.integers(1, 400),
)
@settings(max_examples=80, deadline=None)
def test_variance_factor_property(alpha, t):
    got = variance_factor(t, alpha)
    assert got == pytest.approx(variance_factor_bruteforce(t, alpha), abs=1e-10)
    # S always lies in (0, 1]: it averages values (1 - alpha)^{|j-k|} <= 1
    assert 0.0 < got <= 1.0 + 1e-12


def test_variance_factor_t1_is_one():
    for alpha in (1e-8, 1e-4, 0.3, 0.999999):
        assert variance_factor(1, alpha) == 1.0


# ---------------------------------------------------------------------------
# reductions and orderings
# ---------------------------------------------------------------------------


def test_approx_bounds_reduce_bitwise_at_zero_epsilon():
    params = ErgodicityParams(0.37, 0.0)
    for t in (1, 3, 17, 998):
        inputs = BoundInputs(t=t, tv0=0.8, fstar=2.5)
        assert tv_bound_approx(params, t, 0.8) == tv_bound_exact(0.37, inputs)
        assert l2_bound_approx(params, t, 0.8, 2.5) == l2_bound_exact(0.37, inputs)


def test_exact_bounds_keep_the_exact_chain_forms_bitwise():
    """The exact bounds are the approximate body at epsilon = 0.  Over
    arrays of alpha, t, tv0 and fstar they still equal the exact chain's
    own forms bit for bit: the Cesaro term C for TV, and
    4 fstar^2 C + fstar^2 S(t, alpha) for L2."""
    alpha = np.geomspace(1e-9, 0.999, 20)[:, None, None, None]
    t = np.unique(np.geomspace(1, 1e7, 4000).astype(np.int64))[None, :, None, None]
    tv0 = np.array([0.0, 0.3, 1.0])[None, None, :, None]
    fstar = np.array([0.0, 1.0, 3.7, 1e150])[None, None, None, :]
    inputs = BoundInputs(t=t, tv0=tv0, fstar=fstar)
    cesaro = (1.0 - np.exp(t * np.log1p(-alpha))) * tv0 / (alpha * t)
    f2 = fstar * fstar
    tv, l2 = tv_bound_exact(alpha, inputs), l2_bound_exact(alpha, inputs)
    assert np.array_equal(tv, cesaro)
    assert np.array_equal(l2, 4.0 * f2 * cesaro + f2 * variance_factor(t, alpha))
    params = ErgodicityParams(alpha, 0.0)
    assert np.array_equal(tv_bound_approx(params, t, tv0), tv)
    assert np.array_equal(l2_bound_approx(params, t, tv0, fstar), l2)


@given(
    alpha=st.floats(0.01, 0.99),
    eps_frac=st.floats(0.0, 0.999),
    t=st.integers(1, 2000),
    tv0=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_approx_tv_dominates_exact(alpha, eps_frac, t, tv0):
    """Approximating never tightens the bound at matched inputs."""
    eps = eps_frac * alpha / 2.0
    params = ErgodicityParams(alpha, eps)
    exact = tv_bound_exact(alpha, BoundInputs(t=t, tv0=tv0))
    approx = tv_bound_approx(params, t, tv0)
    assert approx >= exact - 1e-12


def test_tv_bound_nonincreasing_in_t():
    for alpha in (0.05, 0.5):
        vals = [tv_bound_exact(alpha, BoundInputs(t=t)) for t in range(1, 300)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_stationary_bias():
    assert stationary_bias_bound(ErgodicityParams(0.2, 0.05)) == pytest.approx(0.25)


def test_mixing_time_monotone_in_delta():
    ms = [mixing_time_bound(0.1, d) for d in (0.2, 0.1, 0.01, 1e-4)]
    assert all(b > a for a, b in zip(ms, ms[1:]))


# ---------------------------------------------------------------------------
# validation and clamping
# ---------------------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        ErgodicityParams(0.0)
    with pytest.raises(ValueError):
        ErgodicityParams(1.0)
    with pytest.raises(ValueError):
        ErgodicityParams(0.2, 0.1)  # epsilon must stay below alpha / 2
    with pytest.raises(ValueError):
        BoundInputs(t=0)
    with pytest.raises(ValueError):
        BoundInputs(t=1, tv0=1.5)
    with pytest.raises(ValueError):
        BoundInputs(t=1, fstar=-0.1)
    with pytest.raises(ValueError):
        mixing_time_bound(0.1, 0.0)
    with pytest.raises(ValueError):
        mixing_time_bound(0.1, 1.0)


def test_alpha_eps():
    assert ErgodicityParams(0.3, 0.1).alpha_eps == pytest.approx(0.1)


def test_clamp_tv():
    assert clamp_tv(-0.5) == 0.0
    assert clamp_tv(0.5) == 0.5
    assert clamp_tv(7.0) == 1.0


# ---------------------------------------------------------------------------
# the O(1)-memory variance factor against 50-digit arithmetic
# ---------------------------------------------------------------------------


def test_variance_factor_matches_mpmath():
    """t^2 S = t + 2 r (t alpha - 1 + r^t) / alpha^2 at 50 digits, with
    alpha taken as the exact double, on a grid across both the small- and
    the large-alpha t regimes."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    alphas = np.concatenate([10.0 ** np.arange(-9.0, -0.2, 0.5), [0.3, 0.49, 0.5, 0.7, 0.9, 0.999]])
    ts = np.unique(np.round(np.geomspace(1, 10**7, 36)).astype(np.int64))
    ts = np.union1d(ts, np.arange(1, 12))
    worst = 0.0
    for alpha in alphas:
        got = variance_factor(ts, alpha)
        a = mpmath.mpf(float(alpha))
        r = 1 - a
        for t, g in zip(ts.tolist(), got.tolist()):
            ref = (t + 2 * r * (t * a - 1 + r**t) / a**2) / t**2
            worst = max(worst, float(abs((mpmath.mpf(g) - ref) / ref)))
    assert worst <= 2e-15


def test_variance_factor_memory_is_constant_in_t():
    import tracemalloc

    variance_factor(10, 1e-8)  # warm any lazy numpy state
    tracemalloc.start()
    try:
        got = variance_factor(10**7, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert 0.0 < got <= 1.0


def test_variance_factor_tiny_alpha_stays_finite():
    # S -> 1 as alpha -> 0; alpha^2 underflows here, the scaled parts do not
    for alpha in (1e-200, 5e-324):
        assert variance_factor(np.array([1, 2, 10, 10**7]), alpha).tolist() == [1.0] * 4


def test_exact_l2_bound_keeps_its_form_where_alpha_or_fstar_is_extreme():
    """The epsilon terms are exactly 0 at epsilon = 0 even where alpha^2
    underflows or fstar^2 overflows, so the exact L2 bound stays
    4 fstar^2 C + fstar^2 S(t, alpha) there."""
    t = np.array([1, 2, 10, 10**7])
    for alpha, fstar in ((1e-200, 1.0), (1e-200, 2.5), (5e-323, 1.0), (5e-323, 2.5), (0.1, 1e160)):
        inputs = BoundInputs(t=t, tv0=0.3, fstar=fstar)
        f2 = fstar * fstar
        want = 4.0 * f2 * tv_bound_exact(alpha, inputs) + f2 * variance_factor(t, alpha)
        assert np.array_equal(l2_bound_exact(alpha, inputs), want), (alpha, fstar)
    assert l2_bound_exact(0.1, BoundInputs(t=10, fstar=1e160)) == math.inf
    with pytest.raises(ValueError, match="fstar"):
        BoundInputs(t=10, fstar=math.inf)


# ---------------------------------------------------------------------------
# scalar and array calls
# ---------------------------------------------------------------------------


def test_scalar_and_array_calls_agree_elementwise():
    rng = np.random.default_rng(7)
    alpha = rng.uniform(0.01, 0.99, 400)
    eps = rng.uniform(0.0, 0.999, 400) * alpha / 2.0
    t = np.round(10.0 ** rng.uniform(0.0, 7.0, 400)).astype(np.int64)
    tv0, fstar = rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 3.0, 400)
    params = ErgodicityParams(alpha, eps)
    inputs = BoundInputs(t=t, tv0=tv0, fstar=fstar)
    arrays = {
        "variance_factor": variance_factor(t, alpha),
        "tv_exact": tv_bound_exact(alpha, inputs),
        "tv_approx": tv_bound_approx(params, t, tv0),
        "l2_exact": l2_bound_exact(alpha, inputs),
        "l2_approx": l2_bound_approx(params, t, tv0, fstar),
        "bias": stationary_bias_bound(params),
    }
    for i in range(len(t)):
        p = ErgodicityParams(float(alpha[i]), float(eps[i]))
        b = BoundInputs(t=int(t[i]), tv0=float(tv0[i]), fstar=float(fstar[i]))
        scalars = {
            "variance_factor": variance_factor(int(t[i]), float(alpha[i])),
            "tv_exact": tv_bound_exact(float(alpha[i]), b),
            "tv_approx": tv_bound_approx(p, int(t[i]), float(tv0[i])),
            "l2_exact": l2_bound_exact(float(alpha[i]), b),
            "l2_approx": l2_bound_approx(p, int(t[i]), float(tv0[i]), float(fstar[i])),
            "bias": stationary_bias_bound(p),
        }
        for name, value in scalars.items():
            assert type(value) is float, name
            assert value == arrays[name][i], (name, i)


def test_array_validation_rejects_any_bad_entry():
    with pytest.raises(ValueError):
        ErgodicityParams(np.array([0.2, 1.0]))
    with pytest.raises(ValueError):
        ErgodicityParams(0.2, np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        ErgodicityParams(float("nan"))
    with pytest.raises(ValueError):
        BoundInputs(t=np.array([1, 0]))
    with pytest.raises(ValueError):
        BoundInputs(t=1, tv0=np.array([0.5, float("nan")]))
    with pytest.raises(ValueError):
        variance_factor(np.array([3, 2]), np.array([0.5, 0.0]))


def test_approx_bounds_validate_their_inputs():
    """The approximate bounds refuse what BoundInputs refuses."""
    params = ErgodicityParams(0.1, 0.01)
    with pytest.raises(ValueError, match="tv0"):
        tv_bound_approx(params, 10, 5.0)
    with pytest.raises(ValueError, match="fstar"):
        l2_bound_approx(params, 10, 0.5, -1.0)
    with pytest.raises(ValueError, match="tv0"):
        l2_bound_approx(params, 10, np.array([0.5, -0.1]), 1.0)
    with pytest.raises(ValueError, match="path length"):
        tv_bound_approx(params, np.array([3, 0]), 0.5)
