"""Convergence diagnostics: rate estimate, kernel distance, Geweke, ESS."""

import math
import warnings

import numpy as np
import pytest

from amcmc.diagnostics import (
    Trace,
    _autocovariance,
    effective_sample_size,
    geweke_z,
    phi_max,
    read_trace_csv,
    w1_kernel_distance,
    write_trace_csv,
)
from amcmc.distributions import SeededRng
from amcmc.finite_chain import (
    FiniteKernel,
    FiniteMeasure,
    exact_autocovariance,
    invariant_measure,
    simulate_path,
    two_state_symmetric,
)


def ar1(rho, t, seed=0, p=1):
    rng = np.random.default_rng(seed)
    x = np.zeros((t, p))
    innov = rng.normal(size=(t, p)) * math.sqrt(1 - rho * rho)
    for i in range(1, t):
        x[i] = rho * x[i - 1] + innov[i]
    return Trace(x)


def dot_product_autocovariance(x):
    """The lag loop the estimators used before the FFT: divide-by-t
    autocovariances of the 1-d x at lags 0..t-1, one dot product each."""
    t = len(x)
    xc = x - x.mean()
    return np.array([float(xc[: t - k] @ xc[k:]) / t for k in range(t)])


def loop_ess(x):
    """The ESS loop as it was: t / (1 + 2 sum rho_k), the sum stopped at the
    first nonpositive rho_k or at lag 5000."""
    t = len(x)
    xc = x - x.mean()
    var = float(xc @ xc) / t
    acc = 0.0
    for k in range(1, min(t - 1, 5000)):
        rho = float(xc[: t - k] @ xc[k:]) / t / var
        if rho <= 0.0:
            break
        acc += rho
    return t / (1.0 + 2.0 * acc)


# ---------------------------------------------------------------------------
# Trace container
# ---------------------------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(np.zeros((1, 2)))  # too short
    with pytest.raises(ValueError):
        Trace(np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError):
        Trace(np.zeros((2, 2, 2)))


def test_trace_one_dim_promoted_to_column():
    tr = Trace(np.arange(5.0))
    assert tr.samples.shape == (5, 1)
    assert tr.t == 5 and tr.p == 1


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [2, 3, 1001])
def test_autocovariance_matches_dot_product_loop(t):
    rng = np.random.default_rng(t)
    x = np.column_stack([np.cumsum(rng.normal(size=t)), rng.normal(size=t), np.full(t, 2.5)])
    gamma = _autocovariance(x)
    assert gamma.shape == (t, 3)
    for j in range(2):
        want = dot_product_autocovariance(x[:, j])
        assert np.max(np.abs(gamma[:, j] - want)) <= 1e-12 * want[0]
    assert np.all(gamma[:, 2] == 0.0)  # a constant column


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_nonpositive_rule_on_fft_autocovariance_is_the_loop_ess(seed):
    """The old stopping rule applied to the FFT autocovariances gives the old
    loop's ESS: the routine alone changes ESS only by rounding."""
    t = 20_000
    P = two_state_symmetric(0.1 + 0.1 * seed)
    x = simulate_path(SeededRng(seed), P, FiniteMeasure(np.array([0.5, 0.5])), t).astype(float)
    gamma = _autocovariance(x[:, None])[:, 0]
    rho = gamma[1 : min(t - 1, 5000)] / gamma[0]
    stop = np.flatnonzero(rho <= 0.0)
    acc = rho[: stop[0] if stop.size else len(rho)].sum()
    assert t / (1.0 + 2.0 * acc) == pytest.approx(loop_ess(x), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# phi_max
# ---------------------------------------------------------------------------


def test_phi_max_recovers_ar1_rate():
    tr = ar1(0.8, 50_000, seed=1)
    rep = phi_max(tr, k_max=20)
    assert rep.phi_max is not None
    assert rep.phi_max == pytest.approx(0.8, abs=0.05)


def test_phi_max_absent_for_iid():
    rng = np.random.default_rng(8)
    rep = phi_max(Trace(rng.normal(size=(20_000, 2))), k_max=10)
    assert rep.phi_max is None
    assert rep.retained == []


def test_phi_max_excludes_constant_coordinate():
    x = np.column_stack([np.ones(1000), np.random.default_rng(0).normal(size=1000)])
    rep = phi_max(Trace(x), k_max=5)
    assert rep.excluded_coords == [0]


def test_phi_max_k_max_validation():
    tr = ar1(0.5, 100)
    with pytest.raises(ValueError):
        phi_max(tr, k_max=11)  # above t / 10
    with pytest.raises(ValueError):
        phi_max(tr, k_max=0)


def test_phi_max_threshold_formula():
    tr = ar1(0.5, 1000)
    rep = phi_max(tr, k_max=10)
    from scipy.stats import norm

    expected = float(norm.ppf(0.95 ** (1 / 10))) / math.sqrt(1000 - 10)
    assert rep.threshold == pytest.approx(expected, abs=1e-12)


def test_phi_max_quantile_equals_scipy_stats_norm_ppf():
    """The threshold's quantile comes from statistics.NormalDist().inv_cdf,
    which must stay within 8 ulp of norm.ppf (5 measured) on the levels
    phi_max asks for, 0.95^(1/k_max), and across (0, 1)."""
    from statistics import NormalDist

    from scipy.stats import norm

    levels = np.concatenate([0.95 ** (1.0 / np.arange(1, 10_001)), np.linspace(0.0, 1.0, 1001)[1:-1]])
    got = np.array([NormalDist().inv_cdf(q) for q in levels.tolist()])
    want = norm.ppf(levels)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


# ---------------------------------------------------------------------------
# kernel distance
# ---------------------------------------------------------------------------


def test_w1_two_singletons_closed_form():
    # sets {a} and {b}: dist = sqrt((2 - 2 exp(-phi (a-b)^2)) / sigma)
    a, b, phi, sigma = 0.3, 1.7, 0.8, 2.0
    got = w1_kernel_distance(np.array([a]), np.array([b]), phi=phi, sigma=sigma)
    want = math.sqrt((2.0 - 2.0 * math.exp(-phi * (a - b) ** 2)) / sigma)
    assert got == pytest.approx(want, abs=1e-12)


def test_w1_identical_sets_is_zero():
    x = np.random.default_rng(0).normal(size=(50, 3))
    assert w1_kernel_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-9)


def test_w1_symmetry_and_positivity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(60, 2)) + 0.5
    d1 = w1_kernel_distance(x, y)
    d2 = w1_kernel_distance(y, x)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 > 0.0


def test_w1_shrinks_as_laws_merge():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(500, 1))
    ds = [
        w1_kernel_distance(x, rng.normal(size=(500, 1)) + shift)
        for shift in (2.0, 1.0, 0.0)
    ]
    assert ds[0] > ds[1] > ds[2]


def test_w1_validation():
    with pytest.raises(ValueError):
        w1_kernel_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        w1_kernel_distance(np.zeros((0, 1)), np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# Geweke and ESS
# ---------------------------------------------------------------------------


def test_geweke_small_for_stationary_large_for_trended():
    tr = ar1(0.5, 20_000, seed=3)
    assert abs(geweke_z(tr)[0]) < 4.0
    trended = Trace(np.linspace(0, 10, 20_000) + ar1(0.5, 20_000, seed=4).samples[:, 0])
    assert abs(geweke_z(trended)[0]) > 5.0


def test_geweke_window_validation():
    tr = ar1(0.5, 1000)
    with pytest.raises(ValueError):
        geweke_z(tr, first_frac=0.6, last_frac=0.5)
    with pytest.raises(ValueError):
        geweke_z(tr, first_frac=0.0)


def test_geweke_columns_match_single_column_calls():
    """One call over the trace equals one call per column; a column
    constant inside a window gets NaN, without an error or a warning."""
    x = ar1(0.5, 5000, seed=10, p=3).samples.copy()
    x[:500, 1] = 0.7  # constant inside the first window only
    x[:, 2] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = geweke_z(Trace(x))
        per_column = [geweke_z(Trace(x[:, j]))[0] for j in range(3)]
    assert np.isfinite(z[0]) and np.isnan(z[1:]).all()
    np.testing.assert_allclose(z, per_column, rtol=1e-12, atol=0)


def test_ess_iid_near_t():
    rng = np.random.default_rng(5)
    tr = Trace(rng.normal(size=(20_000, 1)))
    ess, flags = effective_sample_size(tr)
    assert not flags[0]
    assert ess[0] == pytest.approx(20_000, rel=0.1)


def test_ess_ar1_matches_theory():
    # AR(1) with rho: ESS/t -> (1 - rho) / (1 + rho)
    rho = 0.6
    tr = ar1(rho, 100_000, seed=6)
    ess, _ = effective_sample_size(tr)
    assert ess[0] / tr.t == pytest.approx((1 - rho) / (1 + rho), abs=0.04)


def test_ess_constant_coordinate_flagged():
    x = np.column_stack([np.ones(500), np.random.default_rng(7).normal(size=500)])
    ess, flags = effective_sample_size(Trace(x))
    assert flags[0] and not flags[1]
    assert ess[0] == 500


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.45])
def test_two_state_chain_ess(seed, a):
    """On the symmetric chain with off-diagonal a, autocorrelations are
    rho^k with rho = 1 - 2a, so ESS/t = (1 - rho) / (1 + rho) = a / (1 - a).
    The tolerance is 4 standard errors sqrt((4 L + 2) / t) of an
    autocorrelation sum truncated at lag L, where rho^L falls to the
    1/sqrt(t) noise floor (Sokal's estimate)."""
    t = 50_000
    rho = 1.0 - 2.0 * a
    lag = math.ceil(0.5 * math.log(t) / math.log(1.0 / rho))
    P = two_state_symmetric(a)
    nu = FiniteMeasure(np.array([0.5, 0.5]))
    path = simulate_path(SeededRng(seed), P, nu, t)
    ess, _ = effective_sample_size(Trace(path.astype(float)))
    assert ess[0] / t == pytest.approx(a / (1 - a), rel=4.0 * math.sqrt((4 * lag + 2) / t))


@pytest.mark.parametrize("states, seed", [(3, 41), (4, 42), (5, 43), (5, 44)])
def test_ess_matches_exact_autocovariances_on_random_kernels(states, seed):
    """A random reversible kernel, made lazy so its spectrum lies in [0, 1],
    and a random function f of the state: the exact ESS is
    t gamma_0 / (gamma_0 + 2 sum_k gamma_k), with gamma_k from
    ``exact_autocovariance`` summed until rho_2^k falls below 1e-16.  The
    estimate on a stationary path of length t must lie within 4 Sokal
    standard errors sqrt((4 L + 2) / t), L the lag where rho_2^L reaches
    1/sqrt(t), rho_2 the second-largest eigenvalue."""
    t = 50_000
    gen = np.random.default_rng(seed)
    W = gen.uniform(0.1, 1.0, size=(states, states))
    W += W.T
    P = FiniteKernel(0.5 * (np.eye(states) + W / W.sum(axis=1, keepdims=True)))
    f = gen.normal(size=states)
    rho = np.sort(np.abs(np.linalg.eigvals(P.matrix)))[-2]
    gamma = [exact_autocovariance(P, f, k) for k in range(math.ceil(math.log(1e-16) / math.log(rho)))]
    exact = t * gamma[0] / (gamma[0] + 2.0 * sum(gamma[1:]))
    path = simulate_path(SeededRng(seed), P, invariant_measure(P), t)
    ess, _ = effective_sample_size(Trace(f[path][:, None]))
    lag = math.ceil(0.5 * math.log(t) / math.log(1.0 / rho))
    assert ess[0] == pytest.approx(exact, rel=4.0 * math.sqrt((4 * lag + 2) / t))

@pytest.mark.parametrize("t", [10_000, 9_999])
def test_ess_of_antithetic_paths_is_t(t):
    """An alternating path and an MA(1) path e_i - e_{i-1} have spectral
    density near 0 at frequency zero; their ESS stays t, as the old
    first-nonpositive rule gave."""
    alternating = np.arange(t) % 2.0
    e = np.random.default_rng(t).normal(size=t + 1)
    ess, flags = effective_sample_size(Trace(np.column_stack([alternating, e[1:] - e[:-1]])))
    assert not flags.any()
    assert np.array_equal(ess, [t, t])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_trace_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    tr = Trace(rng.normal(size=(100, 3)) * 1e-7)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path, names=["a", "b", "c"])
    back = read_trace_csv(path)
    assert np.array_equal(tr.samples, back.samples)  # repr round-trips floats
    # writing the read-back trace reproduces the file byte for byte
    path2 = tmp_path / "trace2.csv"
    write_trace_csv(back, path2, names=["a", "b", "c"])
    assert path.read_bytes() == path2.read_bytes()


def test_trace_csv_blank_lines_read_as_absent(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b\n1.5,-2.0\n\n3.0,4.25\n\n5e-300,6.0\n")
    back = read_trace_csv(path)
    assert np.array_equal(back.samples, [[1.5, -2.0], [3.0, 4.25], [5e-300, 6.0]])
