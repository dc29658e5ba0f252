"""Randomized low-rank GP machinery: factorization, likelihood identity,
predictive law, sampler plumbing."""

import math

import numpy as np
import pytest

from amcmc.distributions import SeededRng
from amcmc.gp_lowrank import (
    GPModel,
    GPSampler,
    GPState,
    LowRankFactor,
    delta_for_epsilon,
    eig_accuracy_metrics,
    marginal_loglik,
    marginal_loglik_dense,
    mh_griddy_step,
    predictive_f_draw,
    predictive_mean,
    prediction_rmse_curve,
    randomized_partial_eig,
    run_budget_experiment,
    se_covariance,
    simulate_gp,
)


def test_se_covariance_basics():
    X = np.array([[0.0], [1.0], [3.0]])
    S = se_covariance(X, 0.5)
    assert np.allclose(np.diag(S), 1.0)
    assert S == pytest.approx(S.T)
    assert S[0, 1] == pytest.approx(math.exp(-0.5))
    assert S[0, 2] == pytest.approx(math.exp(-4.5))
    # positive definite up to jitter
    assert np.linalg.eigvalsh(S).min() > -1e-12


# ---------------------------------------------------------------------------
# randomized factorization
# ---------------------------------------------------------------------------


def test_factor_residual_within_target():
    rng = SeededRng(0, 0)
    X, _, _ = simulate_gp(rng, 80, 1, 30.0, 0.1, 1.0, "grid")
    S = se_covariance(X, 30.0)
    for delta in (0.1, 1e-3):
        fac = randomized_partial_eig(SeededRng(1), S, delta)
        assert fac.resid_fro <= delta
        assert fac.lam[0] > 0.0
        assert np.all(np.diff(fac.lam) <= 1e-12)  # descending
        # orthonormal basis
        assert fac.U.T @ fac.U == pytest.approx(np.eye(fac.r), abs=1e-10)


def test_factor_rank_grows_as_delta_shrinks():
    rng = SeededRng(2)
    X = rng.normal(size=(150, 4))
    S = se_covariance(X, 0.3)
    coarse = randomized_partial_eig(SeededRng(3), S, 0.05)
    fine = randomized_partial_eig(SeededRng(4), S, 0.001)
    assert fine.r > coarse.r


def test_factor_exact_on_low_rank_matrix():
    """A genuinely rank-2 PSD matrix is recovered to machine precision."""
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.normal(size=(60, 2)))[0]
    S = (V * np.array([3.0, 1.0])) @ V.T
    fac = randomized_partial_eig(SeededRng(6), S, 1e-6)
    assert fac.resid_fro <= 1e-6
    assert fac.lam[:2] == pytest.approx([3.0, 1.0], abs=1e-8)


def test_factor_rejects_bad_delta():
    with pytest.raises(ValueError):
        randomized_partial_eig(SeededRng(0), np.eye(4), 0.0)


def test_accuracy_metrics_perfect_factor():
    rng = np.random.default_rng(7)
    X = np.linspace(0, 1, 50)[:, None]
    S = se_covariance(X, 20.0)
    vals, vecs = np.linalg.eigh(S)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    fac = LowRankFactor(vecs[:, :10], vals[:10], 0.0, 3, 0.0)
    R, F, C = eig_accuracy_metrics(vals, vecs, fac, SeededRng(8))
    assert R == pytest.approx(0.0, abs=1e-12)
    assert F == pytest.approx(0.0, abs=1e-10)
    assert C == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# marginal likelihood eigen-identity
# ---------------------------------------------------------------------------


def test_loglik_identity_full_rank():
    rng = SeededRng(9)
    X, _, y = simulate_gp(rng, 60, 1, 15.0, 0.2, 1.3, "grid")
    S = se_covariance(X, 15.0)
    vals, vecs = np.linalg.eigh(S)
    fac = LowRankFactor(vecs[:, ::-1], np.clip(vals[::-1], 0, None), 0.0, 3, 0.0, True)
    for s2, t2 in ((0.2, 1.3), (1.0, 0.1), (3.0, 2.0)):
        assert marginal_loglik(y, fac, s2, t2) == pytest.approx(
            marginal_loglik_dense(y, S, s2, t2), abs=1e-8
        )


def test_loglik_identity_low_rank():
    """At reduced rank the identity must match the dense likelihood of the
    *factored* covariance, exactly."""
    rng = np.random.default_rng(10)
    V = np.linalg.qr(rng.normal(size=(40, 6)))[0]
    lam = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    fac = LowRankFactor(V, lam, 0.0, 3, 0.0)
    S_eps = (V * lam) @ V.T
    y = rng.normal(size=40)
    assert marginal_loglik(y, fac, 0.3, 1.7) == pytest.approx(
        marginal_loglik_dense(y, S_eps, 0.3, 1.7), abs=1e-9
    )


def test_loglik_validation():
    fac = LowRankFactor(np.eye(3)[:, :1], np.array([1.0]), 0.0, 3, 0.0)
    with pytest.raises(ValueError):
        marginal_loglik(np.zeros(3), fac, 0.0, 1.0)
    with pytest.raises(ValueError):
        marginal_loglik(np.zeros(3), fac, 1.0, -0.5)


# ---------------------------------------------------------------------------
# predictive law
# ---------------------------------------------------------------------------


def test_predictive_mean_matches_dense_solve():
    rng = np.random.default_rng(11)
    V = np.linalg.qr(rng.normal(size=(30, 5)))[0]
    lam = np.array([4.0, 2.0, 1.0, 0.5, 0.2])
    fac = LowRankFactor(V, lam, 0.0, 3, 0.0)
    y = rng.normal(size=30)
    state = GPState(0.4, 1.2, 0)
    S_eps = (V * lam) @ V.T
    want = np.linalg.solve(1.2 * S_eps + 0.4 * np.eye(30), y)
    assert predictive_mean(state, fac, y) == pytest.approx(want, abs=1e-10)


def test_predictive_draw_moments():
    rng = np.random.default_rng(12)
    V = np.linalg.qr(rng.normal(size=(10, 2)))[0]
    lam = np.array([2.0, 1.0])
    fac = LowRankFactor(V, lam, 0.0, 3, 0.0)
    y = rng.normal(size=10)
    state = GPState(0.5, 1.0, 0)
    draws_rng = SeededRng(13)
    draws = np.array([predictive_f_draw(draws_rng, state, fac, y) for _ in range(40000)])
    psi = np.linalg.inv(1.0 * (V * lam) @ V.T + 0.5 * np.eye(10))
    assert draws.mean(axis=0) == pytest.approx(psi @ y, abs=0.05)
    assert np.cov(draws.T) == pytest.approx(psi, abs=0.06)


# ---------------------------------------------------------------------------
# accuracy-to-target translation
# ---------------------------------------------------------------------------


def test_delta_for_epsilon_branches():
    d_app = delta_for_epsilon(0.25, 1.0, 0.1, 100, 30.0)
    d_rem = delta_for_epsilon(0.25, 1.0, 0.1, 100, 30.0, second_branch="remark")
    # the appendix branch divides the second term by n, so it can only be
    # smaller or equal
    assert d_app <= d_rem
    assert d_app > 0.0
    # quadratic in epsilon for both branches
    assert delta_for_epsilon(0.25, 1.0, 0.2, 100, 30.0) == pytest.approx(4 * d_app)
    with pytest.raises(ValueError):
        delta_for_epsilon(0.25, 1.0, 0.1, 100, 30.0, second_branch="other")


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def _toy_sampler(seed, delta=0.01, n=60):
    rng = SeededRng(seed, 0)
    X, f, y = simulate_gp(rng, n, 1, 20.0, 0.25, 1.0, "grid")
    model = GPModel(X, y, np.geomspace(5.0, 80.0, 5))
    return GPSampler(SeededRng(seed, 1), model, delta)


def test_sampler_run_reproducible():
    s = _toy_sampler(14)
    r1 = s.run(SeededRng(15), steps=50, burn_in=20)
    r2 = s.run(SeededRng(15), steps=50, burn_in=20)
    assert np.array_equal(r1["trace"], r2["trace"])
    assert 0.0 <= r1["accept_rate"] <= 1.0
    assert r1["trace"].shape == (50, 3)
    assert np.all(r1["trace"][:, :2] > 0.0)


def test_sampler_run_rejects_empty_or_negative_budgets():
    s = _toy_sampler(14)
    for steps, burn_in in ((0, 20), (-1, 20), (10, -1)):
        rng = SeededRng(15)
        with pytest.raises(ValueError, match="steps >= 1"):
            s.run(rng, steps=steps, burn_in=burn_in)
        assert rng.normal() == SeededRng(15).normal()  # nothing drawn


def test_probe_safety_quantile_equals_scipy_stats_chi2_ppf():
    """randomized_partial_eig takes the chi2 quantile as 2 P^-1(k/2, q);
    it must give chi2.ppf's bits (chdtri does not) over the probe counts
    and failure levels it can see."""
    from scipy.special import gammaincinv
    from scipy.stats import chi2

    for df in range(1, 41):
        q = 10.0 ** -np.linspace(0.5, 12.0, 24)
        assert np.array_equal(2 * gammaincinv(df / 2, q), chi2.ppf(q, df=df))


def test_mh_griddy_step_returns_valid_state():
    s = _toy_sampler(16)
    state = GPState(1.0, 1.0, 2)
    rng = SeededRng(17)
    for _ in range(20):
        state, accepted = mh_griddy_step(rng, state, s.model, s.factors)
        assert isinstance(accepted, bool) or accepted in (True, False)
        assert 0 <= state.phi_index < len(s.factors)


def test_gpstate_validation():
    with pytest.raises(ValueError):
        GPState(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        GPState(1.0, -1.0, 0)


def test_model_validation():
    X = np.linspace(0, 1, 10)[:, None]
    with pytest.raises(ValueError):
        GPModel(X, np.zeros(10), np.array([2.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        GPModel(X, np.zeros(10), np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# budget experiment
# ---------------------------------------------------------------------------


def test_budget_experiment_shape_and_cost_ordering():
    out = run_budget_experiment(0, n=80, q=4, phi=0.2, n_draws=200)
    (rc, rmse_c), (rf, rmse_f) = out[0.05], out[0.001]
    assert rf > rc  # the finer target needs more rank
    assert len(rmse_c) == len(rmse_f) == 200
    # both running means improve over the first draws
    assert rmse_c[150] < rmse_c[1]
    assert rmse_f[150] < rmse_f[1]


def test_prediction_rmse_curve_converges_to_operator_bias():
    rng = np.random.default_rng(18)
    V = np.linalg.qr(rng.normal(size=(20, 3)))[0]
    lam = np.array([3.0, 1.0, 0.4])
    fac = LowRankFactor(V, lam, 0.0, 3, 0.0)
    y = rng.normal(size=20)
    state = GPState(0.5, 1.0, 0)
    exact = predictive_mean(state, fac, y)  # truth = own mean -> bias 0
    curve = prediction_rmse_curve(SeededRng(19), state, fac, y, exact, 8000)
    assert curve[-1] < curve[10] / 5.0
    assert curve[-1] < 0.1
