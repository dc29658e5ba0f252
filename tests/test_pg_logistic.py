"""Polya-Gamma logistic sampler: exact sweep, subset sweep, audits."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from amcmc.distributions import SeededRng, sample_polya_gamma
from amcmc.pg_logistic import (
    _audit_tv,
    ChainResult,
    LogisticData,
    PGState,
    SubsetPolicy,
    adaptive_subset_size,
    gaussian_kl,
    gibbs_step_exact,
    gibbs_step_subset,
    pinsker_tv,
    run_chain,
    simulate_logistic,
)


def _prior(p, var=100.0):
    """Prior covariance B of beta ~ N(0, B)."""
    return var * np.eye(p)


# ---------------------------------------------------------------------------
# data container
# ---------------------------------------------------------------------------


def test_logistic_data_validation():
    with pytest.raises(ValueError):
        LogisticData(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        LogisticData(np.zeros((4, 2)), np.array([0, 1]))
    d = LogisticData(np.ones((3, 2)), np.array([0, 1, 1]))
    assert d.N == 3 and d.p == 2
    assert d.kappa == pytest.approx([-0.5, 0.5, 0.5])


def test_standardize():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3)) * np.array([5.0, 1.0, 0.1]) + 2.0
    d = LogisticData.standardize(X, (rng.uniform(size=200) < 0.5).astype(int))
    assert d.X.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)
    assert d.X.std(axis=0) == pytest.approx(np.ones(3), abs=1e-12)


def test_simulate_logistic_reproducible():
    d1, b1 = simulate_logistic(SeededRng(1), 100, 3)
    d2, b2 = simulate_logistic(SeededRng(1), 100, 3)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(b1, b2)


# ---------------------------------------------------------------------------
# Gaussian KL oracle and Pinsker
# ---------------------------------------------------------------------------


def test_gaussian_kl_zero_on_identical():
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = np.array([1.0, -1.0])
    assert gaussian_kl(m, S, m, S) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_kl_univariate_closed_form():
    m1, s1, m2, s2 = 0.3, 1.5, -0.2, 0.7
    want = (
        math.log(s2 / s1) + (s1**2 + (m1 - m2) ** 2) / (2 * s2**2) - 0.5
    )
    got = gaussian_kl([m1], [[s1**2]], [m2], [[s2**2]])
    assert got == pytest.approx(want, abs=1e-12)


def test_gaussian_kl_numeric_integration_oracle():
    """KL against direct quadrature of p log(p/q) in one dimension."""
    m1, s1, m2, s2 = 0.0, 1.0, 1.0, 2.0
    p = stats.norm(m1, s1)
    q = stats.norm(m2, s2)
    val, _ = integrate.quad(
        lambda x: p.pdf(x) * (p.logpdf(x) - q.logpdf(x)), -12, 12
    )
    assert gaussian_kl([m1], [[s1**2]], [m2], [[s2**2]]) == pytest.approx(
        val, abs=1e-9
    )


def test_pinsker_clamps():
    assert pinsker_tv(0.0) == 0.0
    assert pinsker_tv(0.5) == pytest.approx(0.5)
    assert pinsker_tv(100.0) == 1.0
    assert pinsker_tv(-1e-12) == 0.0  # tolerate rounding just below zero


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_subset_full_size_is_bitwise_exact():
    """|V| = N consumes the same randomness as the exact sweep and must
    reproduce it draw for draw."""
    data, _ = simulate_logistic(SeededRng(2), 120, 3)
    B_inv = np.linalg.inv(_prior(3))
    policy = SubsetPolicy(size=data.N)
    s_e = PGState(np.zeros(3), np.full(data.N, 0.25), np.arange(data.N))
    s_s = PGState(np.zeros(3), np.full(data.N, 0.25), np.arange(data.N))
    for i in range(25):
        s_e = gibbs_step_exact(SeededRng(3, i), s_e, data, B_inv)
        s_s = gibbs_step_subset(SeededRng(3, i), s_s, data, B_inv, policy)
        assert np.array_equal(s_e.beta, s_s.beta)
        assert np.array_equal(s_e.omega, s_s.omega)


def test_subset_size_below_p_plus_one_rejected():
    data, _ = simulate_logistic(SeededRng(4), 50, 4)
    policy = SubsetPolicy(size=3)
    state = PGState(np.zeros(4), np.full(50, 0.25), np.arange(50))
    with pytest.raises(ValueError):
        gibbs_step_subset(SeededRng(0), state, data, np.linalg.inv(_prior(4)), policy)


def test_subset_policy_validation():
    with pytest.raises(ValueError):
        SubsetPolicy(size=0)


def test_exact_chain_recovers_coefficients():
    """Posterior mean should land near the MLE-scale truth on easy data."""
    data, beta_true = simulate_logistic(SeededRng(5), 1500, 3)
    res = run_chain(SeededRng(6), data, _prior(3), steps=300, burn_in=100)
    post = res.trace.mean(axis=0)
    # standardized design keeps the coefficients on the same scale
    assert np.corrcoef(post, beta_true)[0, 1] > 0.95


def test_run_chain_audit_plumbing():
    data, _ = simulate_logistic(SeededRng(7), 200, 3)
    B = _prior(3)
    policy = SubsetPolicy(size=60)
    res = run_chain(
        SeededRng(8),
        data,
        B,
        steps=40,
        burn_in=10,
        policy=policy,
        audit_every=10,
        audit_rng=SeededRng(9),
    )
    assert isinstance(res, ChainResult)
    assert res.trace.shape == (40, 3)
    assert len(res.audit_steps) == 5  # steps 0, 10, 20, 30, 40
    assert np.all((res.audit_tv >= 0.0) & (res.audit_tv <= 1.0))
    with pytest.raises(ValueError):
        run_chain(
            SeededRng(8), data, B, steps=5, policy=policy, audit_every=2
        )


def test_audit_tv_matches_dense_covariance_kl():
    """The Cholesky-form audit against KL between the two beta conditionals
    built from explicit covariance inverses and the same audit draw."""
    data, _ = simulate_logistic(SeededRng(15), 300, 4)
    B_inv = np.linalg.inv(_prior(4))
    rows = np.sort(SeededRng(16).choice(data.N, 250, replace=False, shuffle=False))
    state = PGState(np.array([0.5, -1.0, 0.2, 1.5]), np.full(250, 0.25), rows)
    got = _audit_tv(SeededRng(17), state, data, B_inv)

    omega = sample_polya_gamma(SeededRng(17), data.X @ state.beta)
    h = data.X.T @ data.kappa
    S_full = np.linalg.inv((data.X.T * omega) @ data.X + B_inv)
    Xr = data.X[rows]
    S_sub = np.linalg.inv(data.N / 250 * (Xr.T * omega[rows]) @ Xr + B_inv)
    want = pinsker_tv(gaussian_kl(S_sub @ h, S_sub, S_full @ h, S_full))
    assert 0.0 < want < 1.0
    assert got == pytest.approx(want, rel=1e-9)


def test_audit_does_not_perturb_chain():
    data, _ = simulate_logistic(SeededRng(10), 150, 3)
    B = _prior(3)
    policy = SubsetPolicy(size=50)
    r1 = run_chain(SeededRng(11), data, B, steps=30, policy=policy)
    r2 = run_chain(
        SeededRng(11),
        data,
        B,
        steps=30,
        policy=policy,
        audit_every=5,
        audit_rng=SeededRng(12),
    )
    assert np.array_equal(r1.trace, r2.trace)


# ---------------------------------------------------------------------------
# adaptive sizing
# ---------------------------------------------------------------------------


def test_adaptive_size_monotone_in_epsilon():
    sizes = [
        adaptive_subset_size(0.2, 1.0, p=5, epsilon=e, N=10**9)
        for e in (0.05, 0.1, 0.2, 0.5)
    ]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_adaptive_size_clamped():
    assert adaptive_subset_size(0.2, 1.0, p=5, epsilon=1e-6, N=1000) == 1000
    assert adaptive_subset_size(0.5, 0.6, p=5, epsilon=10.0, N=1000) >= 6


def test_adaptive_size_validation():
    with pytest.raises(ValueError):
        adaptive_subset_size(0.0, 1.0, 5, 0.1, 100)
    with pytest.raises(ValueError):
        adaptive_subset_size(0.1, 1.0, 5, 0.0, 100)

