"""Randomized low-rank GP machinery: factorization, likelihood identity,
predictive law, sampler plumbing."""

import math

import numpy as np
import pytest

from amcmc import gp_lowrank
from amcmc.distributions import SeededRng, _cdf_draw, sample_discrete
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
from amcmc.gp_lowrank import (
    _NYSTROM_MAX_FRACTION,
    _PRIOR_A,
    _PRIOR_B,
    _PROP_SCALE,
    _TARGET_ACCEPT,
    _dense_factor,
    _loglik,
    _stack,
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


def _eckart_young_rank(vals: np.ndarray, delta: float) -> int:
    """Eckart-Young: ||S - S_i||_F over the best rank-i S_i is the root of
    the tail sum of squared eigenvalues (``vals`` descending); the least i
    within delta."""
    tail = np.sqrt(np.cumsum(vals[::-1] ** 2)[::-1])
    return int(np.searchsorted(-tail, -delta))


@pytest.mark.parametrize("phi, optimum", [(5.0, 8), (20.0, 13), (80.0, 22)])
def test_range_finder_keeps_its_basis_orthonormal(phi, optimum):
    """Grid design, n = 1000, delta = 1e-3.  Projecting each block against
    the basis once lost its orthogonality at phi = 5 and 80 once the range
    was nearly captured, and the search ran to full rank."""
    S = se_covariance(np.linspace(0.0, 1.0, 1000)[:, None], phi)
    fac = randomized_partial_eig(SeededRng(0, 1), S, 1e-3)
    assert not fac.full_rank
    assert np.abs(fac.U.T @ fac.U - np.eye(fac.r)).max() <= 1e-12
    assert fac.resid_fro <= 1e-3
    vals = np.linalg.eigvalsh(S)[::-1]
    assert _eckart_young_rank(vals, 1e-3) == optimum
    # the Nystrom factor is below S (Loewner order), so each of its
    # eigenvalues is below S's and the truncation to the delta/2 tail
    # keeps at most the Eckart-Young rank for delta/2
    assert optimum <= fac.r <= _eckart_young_rank(vals, 0.5e-3)


def test_range_finder_takes_the_nystrom_step_at_mid_rank():
    """Normal design, n = 1000, delta = 0.1: the Eckart-Young ranks for
    delta and delta/2 are 146 and 181.  The doubling basis of 256 columns
    is not yet certified, and its next block would take it past n/3, where
    a Nystrom step costs more than a dense eigendecomposition, so S is
    factored densely: at the Eckart-Young rank for delta/2, within the
    bounds the Nystrom factor met on 522 columns."""
    X, _, _ = simulate_gp(SeededRng(7, 0), 1000, 6, 0.1, 0.25, 1.0, "normal")
    S = se_covariance(X, 0.05)
    fac = randomized_partial_eig(SeededRng(7, 1), S, 0.1)
    assert fac.full_rank
    assert np.linalg.norm(S - (fac.U * fac.lam) @ fac.U.T) <= 0.1
    assert np.abs(fac.U.T @ fac.U - np.eye(fac.r)).max() <= 1e-12
    vals = np.linalg.eigvalsh(S)[::-1]
    assert _eckart_young_rank(vals, 0.1) <= fac.r <= _eckart_young_rank(vals, 0.05)


def test_range_finder_keeps_a_mid_rank_basis_within_n_over_3():
    """Normal design (seed 501), n = 1000, phi = 0.025, delta = 0.1: the
    basis is certified at 256 columns, 266 with the oversample, within
    n/3, so the rank-83 factor comes from the Nystrom step."""
    X, _, _ = simulate_gp(SeededRng(501, 0), 1000, 6, 0.1, 0.25, 1.0, "normal")
    S = se_covariance(X, 0.025)
    fac = randomized_partial_eig(SeededRng(1, 2), S, 0.1)
    assert not fac.full_rank
    assert fac.r == 83
    assert np.linalg.norm(S - (fac.U * fac.lam) @ fac.U.T) <= 0.1
    assert np.abs(fac.U.T @ fac.U - np.eye(fac.r)).max() <= 1e-12
    vals = np.linalg.eigvalsh(S)[::-1]
    assert _eckart_young_rank(vals, 0.1) <= fac.r <= _eckart_young_rank(vals, 0.05)


class _DrawLog:
    """A generator that records the columns of each normal block drawn.
    The range finder draws a basis block, then a probe block, in turn, and
    after a certificate one more basis block (the oversample), so the
    basis is the sum of the even-numbered entries."""

    def __init__(self, rng):
        self.rng, self.columns = rng, []

    def standard_normal(self, size):
        self.columns.append(size[1])
        return self.rng.standard_normal(size=size)

    @property
    def basis(self) -> int:
        return sum(self.columns[0::2])


@pytest.mark.parametrize(
    "n, phi, delta, full_rank",
    [
        (1000, 0.025, 0.1, False),
        (1000, 0.05, 0.1, True),
        (500, 0.025, 0.1, False),
        (500, 0.1, 1.0, True),
        (500, 0.1, 1e-6, True),
        (200, 0.1, 1e-3, True),
        (60, 0.5, 0.1, True),
        (40, 0.1, 1.0, True),
    ],
)
def test_range_finder_basis_never_exceeds_n_over_3(n, phi, delta, full_rank):
    """Normal design (seed 501, q = 6): the columns drawn into the basis,
    the oversample included, stay within n/3, and a factor whose basis
    would pass it is dense.  Below n = 54 even the first block and its
    oversample would, so nothing is drawn."""
    X, _, _ = simulate_gp(SeededRng(501, 0), n, 6, 0.1, 0.25, 1.0, "normal")
    S = se_covariance(X, phi)
    log = _DrawLog(SeededRng(1, 2))
    fac = randomized_partial_eig(log, S, delta)
    assert fac.full_rank == full_rank
    assert log.basis <= n * _NYSTROM_MAX_FRACTION
    assert (log.columns == []) == (n < 54)
    assert fac.resid_fro <= delta


@pytest.mark.parametrize("n, phi, delta", [(500, 0.1, 1.0), (500, 0.1, 1e-6), (40, 0.1, 1.0)])
def test_dense_factor_is_the_dense_branch_of_the_range_finder(n, phi, delta):
    """Byte for byte: the range finder's dense branch is ``_dense_factor``,
    whether a block was drawn first (n = 500) or none (n = 40)."""
    X, _, _ = simulate_gp(SeededRng(501, 0), n, 6, 0.1, 0.25, 1.0, "normal")
    S = se_covariance(X, phi)
    got = randomized_partial_eig(SeededRng(1, 2), S, delta)
    want = _dense_factor(S, delta)
    assert got.full_rank and want.full_rank
    assert got.U.tobytes() == want.U.tobytes()
    assert got.lam.tobytes() == want.lam.tobytes()
    assert got.resid_fro == want.resid_fro
    # only the kept columns are held
    assert want.U.shape == (n, want.r) and want.U.flags.c_contiguous


def test_sampler_factors_after_a_dense_one_draw_nothing():
    """Normal design, n = 150, phi grid (0.003, 0.01, 0.03, 0.1), delta =
    0.1: the first two factors come from the Nystrom step and the third
    reaches the cap.  The fourth is ``_dense_factor`` of its Sigma, byte for
    byte, and the sampler's generator ends where the first three factors
    left it."""
    X, _, y = simulate_gp(SeededRng(0, 0), 150, 6, 0.1, 0.25, 1.0, "normal")
    grid = np.array([0.003, 0.01, 0.03, 0.1])
    rng = SeededRng(0, 1)
    sampler = GPSampler(rng, GPModel(X, y, grid), 0.1)
    assert [f.full_rank for f in sampler.factors] == [False, False, True, True]
    replay = SeededRng(0, 1)
    for phi, f in zip(grid[:3], sampler.factors):
        want = randomized_partial_eig(replay, se_covariance(X, phi), 0.1)
        assert f.U.tobytes() == want.U.tobytes()
    # Philox's state holds arrays, which == compares elementwise
    assert repr(rng.bit_generator.state) == repr(replay.bit_generator.state)
    want = _dense_factor(se_covariance(X, grid[3]), 0.1)
    got = sampler.factors[3]
    assert got.U.tobytes() == want.U.tobytes() and got.lam.tobytes() == want.lam.tobytes()
    assert got.resid_fro == want.resid_fro and got.full_rank


@pytest.mark.parametrize(
    "n, q, phi, delta",
    [(500, 6, 0.025, 1e-6), (500, 6, 0.1, 1e-6), (200, 5, 0.1, 1e-3)],
)
def test_full_basis_factor_is_the_truncated_dense_eigendecomposition(n, q, phi, delta):
    """A basis whose next block would pass n/3 is replaced by the dense
    eigendecomposition of S, truncated to the least rank whose dropped tail
    is within delta/2."""
    X, _, _ = simulate_gp(SeededRng(501, 0), n, q, phi, 0.25, 1.0, "normal")
    S = se_covariance(X, phi)
    fac = randomized_partial_eig(SeededRng(1), S, delta)
    assert fac.full_rank
    vals = np.linalg.eigvalsh(S)[::-1]
    m = _eckart_young_rank(vals, delta / 2)
    assert fac.r == m
    assert np.abs(fac.lam - vals[:m]).max() <= 1e-12 * vals[0]
    assert np.abs(fac.U.T @ fac.U - np.eye(m)).max() <= 1e-12
    assert fac.resid_fro <= delta


def test_range_finder_stops_when_a_block_adds_no_direction():
    """Below the rounding floor no probe estimate meets delta; the search
    ends when a block brings no direction the basis lacks, and the rank-2
    factor it ends with is refused, since it misses delta."""
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.normal(size=(60, 2)))[0]
    S = (V * np.array([3.0, 1.0])) @ V.T
    with pytest.raises(ValueError, match=r"rank-2 factor \(n = 60\) misses delta = 1\.000e-300"):
        randomized_partial_eig(SeededRng(6), S, 1e-300)


def test_factor_below_its_floor_is_refused():
    """At n = 500 (normal design, q = 6) the basis would pass n/3 and the
    dense eigendecomposition holds the residual near 3.1e-13: delta = 1e-10 is
    met (the Nystrom shift held it near 2.2e-8), and delta = 1e-14 cannot
    be met, so no factor is returned.  delta = 1e-6 is met and returned."""
    X, _, _ = simulate_gp(SeededRng(501, 0), 500, 6, 0.1, 0.25, 1.0, "normal")
    S = se_covariance(X, 0.1)
    with pytest.raises(
        ValueError, match="misses delta = 1.000e-14.*rounding of the dense eigendecomposition"
    ):
        randomized_partial_eig(SeededRng(1), S, 1e-14)
    for delta in (1e-10, 1e-6):
        fac = randomized_partial_eig(SeededRng(1), S, delta)
        assert fac.resid_fro <= delta
        assert np.linalg.norm(S - (fac.U * fac.lam) @ fac.U.T) <= delta


def test_factor_rejects_bad_delta():
    with pytest.raises(ValueError):
        randomized_partial_eig(SeededRng(0), np.eye(4), 0.0)


@pytest.mark.parametrize("delta", [math.nan, -math.inf, -1.0])
def test_factor_rejects_a_delta_that_is_not_positive(delta):
    """A NaN delta passed a ``delta <= 0`` test, and no residual exceeds
    NaN: at n = 60 (normal design, q = 2, phi = 0.5) a rank-1 factor with
    residual 14.8 came back.  Both branches refuse it."""
    X, _, _ = simulate_gp(SeededRng(3, 0), 60, 2, 0.5, 0.25, 1.0, "normal")
    S = se_covariance(X, 0.5)
    with pytest.raises(ValueError, match="delta must be positive"):
        randomized_partial_eig(SeededRng(0), S, delta)
    with pytest.raises(ValueError, match="delta must be positive"):
        _dense_factor(S, delta)


def test_factor_of_a_non_finite_matrix_is_refused():
    """phi = inf puts NaN (inf times 0) on the diagonal; the range finder
    found no direction, the NaN residual passed the delta check, and a
    rank-0 factor came back."""
    with pytest.warns(RuntimeWarning, match="invalid value"):
        S = se_covariance(np.linspace(0.0, 1.0, 5)[:, None], math.inf)
    with pytest.raises(ValueError, match="Sigma must be finite"):
        randomized_partial_eig(SeededRng(0), S, 0.1)


def test_accuracy_metrics_perfect_factor():
    rng = np.random.default_rng(7)
    X = np.linspace(0, 1, 50)[:, None]
    S = se_covariance(X, 20.0)
    vals, vecs = np.linalg.eigh(S)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    fac = LowRankFactor(vecs[:, :10], vals[:10], 0.0, 0.0)
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
    fac = LowRankFactor(vecs[:, ::-1], np.clip(vals[::-1], 0, None), 0.0, 0.0, True)
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
    fac = LowRankFactor(V, lam, 0.0, 0.0)
    S_eps = (V * lam) @ V.T
    y = rng.normal(size=40)
    assert marginal_loglik(y, fac, 0.3, 1.7) == pytest.approx(
        marginal_loglik_dense(y, S_eps, 0.3, 1.7), abs=1e-9
    )


def test_stacked_loglik_matches_the_dense_likelihood_of_each_factor():
    """Factors of unequal rank, one truncated on the ``eigh`` branch, laid
    end to end: every row of the stacked log-likelihood is the dense
    likelihood of its own factored covariance."""
    rng = SeededRng(26)
    X, _, y = simulate_gp(rng, 40, 1, 100.0, 0.2, 1.0, "grid")
    factors = [
        randomized_partial_eig(SeededRng(27, k), se_covariance(X, phi), 1e-3)
        for k, phi in enumerate(np.geomspace(5.0, 1e4, 5))
    ]
    assert len({f.r for f in factors}) > 2 and any(f.full_rank and f.r < 40 for f in factors)
    grid = _stack(y, factors)
    for s2, t2 in ((0.2, 1.3), (0.01, 4.0), (3.0, 0.5)):
        got = _loglik(40, *grid, s2, t2)
        for k, f in enumerate(factors):
            S_eps = (f.U * f.lam) @ f.U.T
            assert got[k] == pytest.approx(marginal_loglik_dense(y, S_eps, s2, t2), abs=1e-8)


def test_loglik_validation():
    fac = LowRankFactor(np.eye(3)[:, :1], np.array([1.0]), 0.0, 0.0)
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
    fac = LowRankFactor(V, lam, 0.0, 0.0)
    y = rng.normal(size=30)
    state = GPState(0.4, 1.2, 0)
    S_eps = (V * lam) @ V.T
    want = np.linalg.solve(1.2 * S_eps + 0.4 * np.eye(30), y)
    assert predictive_mean(state, fac, y) == pytest.approx(want, abs=1e-10)


def test_predictive_draw_moments():
    rng = np.random.default_rng(12)
    V = np.linalg.qr(rng.normal(size=(10, 2)))[0]
    lam = np.array([2.0, 1.0])
    fac = LowRankFactor(V, lam, 0.0, 0.0)
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


def _old_run(sampler, rng, steps, burn_in):
    """``GPSampler.run`` as it was before the projections of y were cached:
    every likelihood projects y itself, and the MH ratio evaluates the
    current phi's likelihood at both points, apart from the grid.  Each
    visited factor's predictive sum is drawn after the loop, from sums
    taken one sweep at a time."""
    model, factors, y = sampler.model, sampler.factors, sampler.model.y

    def loglik(factor, sigma2, tau2):
        n = len(y)
        y_u = factor.U.T @ y
        d = tau2 * factor.lam + sigma2
        logdet = float(np.log(d).sum()) + (n - factor.r) * math.log(sigma2)
        quad = float((y_u * y_u / d).sum()) + (float(y @ y) - float(y_u @ y_u)) / sigma2
        return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)

    def log_post(factor, x, z):
        return (
            loglik(factor, math.exp(x), math.exp(z))
            + (-_PRIOR_A * x - _PRIOR_B * math.exp(-x))
            + (-_PRIOR_A * z - _PRIOR_B * math.exp(-z))
        )

    def factor_draw(factor, rows):
        """One draw of the sum of the predictive draws of ``rows``, sweeps
        that sat on ``factor``: N(P y, P) with P the sum of their Psi."""
        E, S = np.zeros(factor.r), 0.0
        for sigma2, tau2, _ in rows:
            E += 1.0 / (tau2 * factor.lam + sigma2)
            S += 1.0 / sigma2
        z = rng.normal(size=len(y))
        mean = factor.U @ ((E - S) * (factor.U.T @ y)) + S * y
        root_u = np.sqrt(E) - math.sqrt(S)
        return mean + factor.U @ (root_u * (factor.U.T @ z)) + math.sqrt(S) * z

    state = GPState(1.0, 1.0, len(factors) // 2)
    scale = _PROP_SCALE
    n_accept = 0
    trace = np.empty((steps, 3))
    for i in range(burn_in + steps):
        factor = factors[state.phi_index]
        x, z = math.log(state.sigma2), math.log(state.tau2)
        step = scale * rng.normal(size=2)
        x_new, z_new = x + step[0], z + step[1]
        log_alpha = log_post(factor, x_new, z_new) - log_post(factor, x, z)
        accepted = math.log(rng.uniform()) < log_alpha
        if accepted:
            sigma2, tau2 = math.exp(x_new), math.exp(z_new)
        else:
            sigma2, tau2 = state.sigma2, state.tau2
        logw = np.array([loglik(f, sigma2, tau2) for f in factors])
        logw -= logw.max()
        w = np.exp(logw)
        state = GPState(sigma2, tau2, sample_discrete(rng, w / w.sum()))
        if i < burn_in:
            scale = math.exp(
                math.log(scale)
                + (1.0 if accepted else 0.0) / (i + 1) ** 0.6
                - _TARGET_ACCEPT / (i + 1) ** 0.6
            )
            scale = min(max(scale, 1e-3), 5.0)
        else:
            j = i - burn_in
            n_accept += accepted
            trace[j] = (state.sigma2, state.tau2, state.phi_index)
    # the kept draws are independent given the trace: one draw of their sum
    # per visited factor, in grid order
    pred_sum = np.zeros(model.n)
    for k, factor in enumerate(factors):
        rows = [row for row in trace if row[2] == k]
        if rows:
            pred_sum += factor_draw(factor, rows)
    return {"trace": trace, "accept_rate": n_accept / steps, "prop_scale": scale,
            "pred_mean": pred_sum / steps}


def test_cached_projections_match_the_per_call_loop_bit_for_bit():
    s = _toy_sampler(21, delta=1e-4)
    rng_new, rng_old = SeededRng(22), SeededRng(22)
    new = s.run(rng_new, steps=60, burn_in=30)
    old = _old_run(s, rng_old, steps=60, burn_in=30)
    assert new["trace"].tobytes() == old["trace"].tobytes()
    assert len(set(new["trace"][:, 2])) > 1  # the chain visits several factors
    assert (new["accept_rate"], new["prop_scale"]) == (old["accept_rate"], old["prop_scale"])
    # the batched pass sums the draws in another order than the loop did
    want = old["pred_mean"]
    assert np.max(np.abs(new["pred_mean"] - want)) <= 1e-12 * np.max(np.abs(want))
    # the same generator position after both chains
    assert rng_new.normal(size=4).tobytes() == rng_old.normal(size=4).tobytes()


def _dense_replay(sampler, rng, steps, burn_in):
    """The chain's trace, replayed step by step from ``rng``,
    and its ``pred_mean`` rebuilt densely: for each factor with a kept sweep,
    in grid order, P = sum_j Psi_j with each Psi_j from ``eigh`` of
    tau_j^2 U Lambda U' + sigma_j^2 I, and P y plus P's symmetric root,
    from ``eigh`` of P, applied to the normals the chain draws for it after
    the loop."""
    grid = _stack(sampler.model.y, sampler.factors)
    state, scale, kept = GPState(1.0, 1.0, len(sampler.factors) // 2), _PROP_SCALE, None
    trace = []
    for i in range(burn_in + steps):
        state, accepted, kept = mh_griddy_step(rng, state, sampler.model, grid, scale, kept)
        if i < burn_in:
            scale = math.exp(
                math.log(scale)
                + (1.0 if accepted else 0.0) / (i + 1) ** 0.6
                - _TARGET_ACCEPT / (i + 1) ** 0.6
            )
            scale = min(max(scale, 1e-3), 5.0)
        else:
            trace.append((state.sigma2, state.tau2, state.phi_index))
    trace = np.array(trace)

    n, y = sampler.model.n, sampler.model.y
    total = np.zeros(n)
    for k, f in enumerate(sampler.factors):
        rows = trace[trace[:, 2] == k]
        if len(rows):
            P = np.zeros((n, n))
            for sigma2, tau2, _ in rows:
                vals, vecs = np.linalg.eigh(tau2 * (f.U * f.lam) @ f.U.T + sigma2 * np.eye(n))
                P += (vecs / vals) @ vecs.T
            vals, vecs = np.linalg.eigh(P)
            total += P @ y + (vecs * np.sqrt(vals)) @ vecs.T @ rng.normal(size=n)
    return trace, total / steps


@pytest.mark.parametrize("row_block", [7, 256])
def test_predictive_mean_of_a_chain_matches_a_dense_replay(monkeypatch, row_block):
    """``pred_mean`` against its dense rebuild by :func:`_dense_replay`.  A
    block of 7 rows leaves every factor a partial last block."""
    monkeypatch.setattr(gp_lowrank, "_ROW_BLOCK", row_block)
    s = _toy_sampler(24, delta=1e-4, n=40)
    steps, burn_in = 50, 20
    run = s.run(SeededRng(25), steps=steps, burn_in=burn_in)
    assert len(set(run["trace"][:, 2])) > 1

    trace, want = _dense_replay(s, SeededRng(25), steps, burn_in)
    assert np.array_equal(trace, run["trace"])
    assert np.max(np.abs(run["pred_mean"] - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("steps, burn_in", [(1, 0), (6, 20)])
def test_predictive_mean_of_a_short_chain_matches_a_dense_replay(steps, burn_in):
    """As above for chains whose kept sweeps leave some grid factor
    without a sweep, so it draws no normals.  With one sweep and no burn-in
    the only kept sweep is the first, which evaluated its own grid vector."""
    s = _toy_sampler(24, delta=1e-4, n=40)
    rng = SeededRng(25)
    run = s.run(rng, steps=steps, burn_in=burn_in)
    assert 1 <= len(set(run["trace"][:, 2])) < len(s.factors)

    replay = SeededRng(25)
    trace, want = _dense_replay(s, replay, steps, burn_in)
    assert np.array_equal(trace, run["trace"])
    assert np.max(np.abs(run["pred_mean"] - want)) <= 1e-10 * np.max(np.abs(want))
    # one normal n-vector per visited factor after the loop, and no more
    assert rng.normal(size=3).tobytes() == replay.normal(size=3).tobytes()


def test_factor_refuses_a_certificate_at_confidence_zero():
    """d_prob = 0 made the probe safety factor 0, so the first block
    certified any residual."""
    with pytest.raises(ValueError, match="d_prob must be >= 1"):
        randomized_partial_eig(SeededRng(0), np.eye(20), 1e-3, d_prob=0)


def test_probe_safety_quantile_equals_scipy_stats_chi2_ppf():
    """randomized_partial_eig takes the chi2(_N_PROBES) quantile at
    q = 10^-d_prob as 2 P^-1(_N_PROBES / 2, q), solved in ``math``.  Over
    every d_prob the CLI accepts it is within 256 ulp of chi2.ppf (170
    measured), and within 2 ulp of a 60-digit mpmath root (1 measured);
    the gap is chi2.ppf's own error.  q = 1 (d_prob = 0) gives inf, as
    chi2.ppf does."""
    import mpmath
    from scipy.stats import chi2

    from amcmc.gp_lowrank import _N_PROBES, _lower_gamma_inv

    a = _N_PROBES // 2
    assert _lower_gamma_inv(a, 1.0) == math.inf == chi2.ppf(1.0, _N_PROBES)
    mpmath.mp.dps = 60
    for d_prob in range(1, 301):
        q = 10.0 ** (-d_prob)
        got = 2.0 * _lower_gamma_inv(a, q)
        want = chi2.ppf(q, _N_PROBES)
        assert abs(got - want) <= 256 * np.spacing(want), d_prob
        if d_prob % 10 == 1:
            log_q = mpmath.log(mpmath.mpf(q))
            root = mpmath.findroot(
                lambda y: mpmath.log(mpmath.gammainc(a, 0, mpmath.exp(y), regularized=True)) - log_q,
                math.log(want / 2.0), tol=mpmath.mpf(10) ** -50,
            )
            exact = 2.0 * float(mpmath.exp(root))
            assert abs(got - exact) <= 2 * np.spacing(exact), d_prob


def test_mh_griddy_step_returns_valid_state():
    s = _toy_sampler(16)
    state = GPState(1.0, 1.0, 2)
    rng = SeededRng(17)
    grid = _stack(s.model.y, s.factors)
    kept = None
    for _ in range(20):
        state, accepted, kept = mh_griddy_step(rng, state, s.model, grid, _PROP_SCALE, kept)
        assert isinstance(accepted, bool) or accepted in (True, False)
        assert 0 <= state.phi_index < len(s.factors)
        # the returned grid likelihood is that of the new variances
        assert kept[0].tobytes() == _loglik(s.model.n, *grid, state.sigma2, state.tau2).tobytes()


def test_mh_griddy_step_evaluates_the_grid_only_on_acceptance(monkeypatch):
    """A rejected sweep evaluates the likelihood on one row, the current
    phi's, and builds no CDF; an accepted one adds one grid evaluation and
    one CDF build, at the variances it keeps."""
    s = _toy_sampler(16)
    grid = _stack(s.model.y, s.factors)
    calls = []
    loglik, discrete_cdf = gp_lowrank._loglik, gp_lowrank._discrete_cdf

    def counted_loglik(*args, row=None):
        calls.append(("row", row) if row is not None else ("grid", args[-2:]))
        return loglik(*args, row=row)

    def counted_cdf(p):
        calls.append(("cdf",))
        return discrete_cdf(p)

    monkeypatch.setattr(gp_lowrank, "_loglik", counted_loglik)
    monkeypatch.setattr(gp_lowrank, "_discrete_cdf", counted_cdf)
    rng, state = SeededRng(17), GPState(1.0, 1.0, 2)
    state, _, kept = mh_griddy_step(rng, state, s.model, grid, _PROP_SCALE)
    outcomes = []
    for _ in range(60):
        calls.clear()
        k = state.phi_index
        state, accepted, new_kept = mh_griddy_step(rng, state, s.model, grid, _PROP_SCALE, kept)
        if accepted:
            assert calls == [("row", k), ("grid", (state.sigma2, state.tau2)), ("cdf",)]
        else:
            assert calls == [("row", k)]
            assert new_kept is kept
        kept = new_kept
        outcomes.append(bool(accepted))
    assert 0 < sum(outcomes) < len(outcomes)


def test_ragged_stack_rows_match_the_dense_likelihood_of_each_factor():
    """Factors of ranks 1, 5, 2 and 9 laid end to end: each row of one
    grid evaluation is the dense likelihood of its own factored covariance,
    and the one-row evaluation is bit for bit that row."""
    rng = np.random.default_rng(29)
    n = 30
    y = rng.normal(size=n)
    factors = []
    for r in (1, 5, 2, 9):
        U = np.linalg.qr(rng.normal(size=(n, r)))[0]
        factors.append(LowRankFactor(U, np.sort(rng.uniform(0.1, 4.0, size=r))[::-1], 0.0, 0.0))
    lam, y_u2, starts, ranks, resid2 = grid = _stack(y, factors)
    assert ranks.tolist() == [1, 5, 2, 9] and starts.tolist() == [0, 1, 6, 8]
    assert len(lam) == len(y_u2) == 17
    for s2, t2 in ((0.2, 1.3), (0.01, 4.0), (3.0, 0.5)):
        got = _loglik(n, *grid, s2, t2)
        for k, f in enumerate(factors):
            S_eps = (f.U * f.lam) @ f.U.T
            assert got[k] == pytest.approx(marginal_loglik_dense(y, S_eps, s2, t2), abs=1e-9)
            assert _loglik(n, *grid, s2, t2, row=k) == got[k]


def test_one_row_is_bit_for_bit_its_row_of_the_grid():
    """The MH ratio's one-row evaluation against the grid vector kept from
    an earlier sweep: equal to the last bit on dense factors of ranks 54,
    166 and 290 (n = 300, normal design) over 300 variance pairs."""
    n = 300
    X, _, y = simulate_gp(SeededRng(30, 0), n, 6, 0.1, 0.25, 1.0, "normal")
    grid = _stack(y, [_dense_factor(se_covariance(X, phi), 0.1) for phi in (0.025, 0.1, 0.4)])
    assert grid[3].tolist() == [54, 166, 290]
    rng = np.random.default_rng(31)
    for s2, t2 in np.exp(rng.normal(scale=2.0, size=(300, 2))):
        got = _loglik(n, *grid, s2, t2)
        assert [_loglik(n, *grid, s2, t2, row=k) for k in range(3)] == got.tolist()


def test_stack_refuses_a_factor_of_rank_zero():
    """``np.add.reduceat`` reads an empty segment as the next one's first
    entry, so a rank-0 factor is refused, not summed wrongly."""
    y = np.ones(4)
    factors = [LowRankFactor(np.eye(4)[:, :2], np.ones(2), 0.0, 0.0),
               LowRankFactor(np.zeros((4, 0)), np.zeros(0), 0.0, 0.0)]
    with pytest.raises(ValueError, match="rank >= 1"):
        _stack(y, factors)


def test_cached_cdf_draw_is_sample_discrete():
    """The phi draw from the CDF that the step keeps and ``sample_discrete``
    of the same weights give the same index from the same generator state,
    and leave the generator in the same place.  Both also match the draw
    written out with ``uniform()``: ``random()`` is the same double."""
    rng = np.random.default_rng(32)
    for size in (1, 2, 5, 12):
        for _ in range(20):
            loglik = rng.normal(scale=rng.choice([0.1, 3.0, 300.0]), size=size)
            cdf = gp_lowrank._phi_cdf(loglik)
            w = np.exp(loglik - loglik.max())
            p = w / w.sum()
            a, b, c = SeededRng(33, size), SeededRng(33, size), SeededRng(33, size)
            for _ in range(50):
                want = min(int(np.searchsorted(np.cumsum(p / p.sum()), c.uniform(), side="right")), size - 1)
                assert _cdf_draw(a, cdf) == sample_discrete(b, p) == want
            assert a.random() == b.random() == c.random()


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


@pytest.mark.parametrize("n, phi, cholesky", [(5, 20.0, True), (20, 5.0, False)])
def test_simulated_f_has_its_law_on_both_roots(n, phi, cholesky):
    """f ~ N(0, tau^2 Sigma) on the grid design, by sample moments of 10^4
    draws: at n = 5, phi = 20 Sigma is positive definite and the Cholesky
    root draws f; at n = 20, phi = 5 Cholesky fails and the
    eigendecomposition does."""
    X = np.linspace(0.0, 1.0, n)[:, None]
    S = se_covariance(X, phi)
    if cholesky:
        np.linalg.cholesky(S)
    else:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
    rng = SeededRng(31)
    F = np.array([simulate_gp(rng, n, 1, phi, 0.25, 2.0, "grid")[1] for _ in range(10_000)])
    # standard errors near 0.014 for the mean and 0.028 for the covariance
    assert np.abs(F.mean(axis=0)).max() <= 0.07
    assert np.abs(F.T @ F / len(F) - 2.0 * S).max() <= 0.14


def test_simulated_f_on_the_default_grid_design_keeps_its_eigh_root():
    """The CLI's default data (n = 200, phi = 20, grid design): Sigma is
    numerically singular, so f is drawn on its eigendecomposition, with
    the bytes of the symmetric root applied to the same normals."""
    S = se_covariance(np.linspace(0.0, 1.0, 200)[:, None], 20.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(S)
    _, f, _ = simulate_gp(SeededRng(0, 0), 200, 1, 20.0, 0.25, 1.0, "grid")
    vals, vecs = np.linalg.eigh(S)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    assert f.tobytes() == (root @ SeededRng(0, 0).standard_normal(size=200)).tobytes()


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
    fac = LowRankFactor(V, lam, 0.0, 0.0)
    y = rng.normal(size=20)
    state = GPState(0.5, 1.0, 0)
    exact = predictive_mean(state, fac, y)  # truth = own mean -> bias 0
    curve = prediction_rmse_curve(SeededRng(19), state, fac, y, exact, 8000)
    assert curve[-1] < curve[10] / 5.0
    assert curve[-1] < 0.1
