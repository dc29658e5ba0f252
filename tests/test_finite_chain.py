"""Exact finite-chain oracles and the two-state sharpness constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc.bounds import BoundInputs, tv_bound_exact
from amcmc.distributions import SeededRng
from amcmc.finite_chain import (
    MAX_DP_STEPS,
    FiniteKernel,
    FiniteMeasure,
    cesaro_tv,
    doeblin_alpha,
    ergodic_average_law,
    exact_autocovariance,
    invariant_measure,
    kernel_tv_sup,
    simulate_path,
    two_state_perturbed,
    two_state_shifted,
    two_state_symmetric,
)


@st.composite
def stochastic_matrices(draw, max_states=5):
    k = draw(st.integers(2, max_states))
    rows = draw(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
    m = np.array(rows)
    return FiniteKernel(m / m.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


def test_kernel_validation():
    with pytest.raises(ValueError):
        FiniteKernel(np.array([[0.5, 0.6], [0.5, 0.5]]))  # rows must sum to 1
    with pytest.raises(ValueError):
        FiniteKernel(np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        FiniteKernel(np.ones((2, 3)) / 3.0)
    with pytest.raises(ValueError):
        FiniteKernel(np.eye(17))  # state cap
    with pytest.raises(ValueError):
        FiniteMeasure(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        FiniteMeasure(np.array([-0.1, 1.1]))


def test_doeblin_alpha_symmetric():
    for a in (0.05, 0.25, 0.45):
        assert doeblin_alpha(two_state_symmetric(a)) == pytest.approx(2 * a, abs=1e-15)


def test_doeblin_alpha_identity_like():
    # near-reducible kernel: rows nearly disjoint -> alpha near 0
    P = FiniteKernel(np.array([[0.99, 0.01], [0.01, 0.99]]))
    assert doeblin_alpha(P) == pytest.approx(0.02, abs=1e-15)


def _random_kernel(g, K):
    """A K-state kernel with entries spread over several decades."""
    m = g.uniform(size=(K, K)) ** 3 + 1e-3
    return FiniteKernel(m / m.sum(axis=1, keepdims=True))


def test_doeblin_alpha_equals_the_pairwise_loop():
    g = np.random.default_rng(21)
    for K in [1, 2] + list(range(3, 17)) * 5:
        P = _random_kernel(g, K)
        worst = 0.0
        for i in range(K):
            for j in range(i + 1, K):
                worst = max(worst, 0.5 * float(np.abs(P.matrix[i] - P.matrix[j]).sum()))
        assert doeblin_alpha(P) == 1.0 - worst


# ---------------------------------------------------------------------------
# invariant measures
# ---------------------------------------------------------------------------


def test_invariant_measure_symmetric_is_uniform():
    pi = invariant_measure(two_state_symmetric(0.25)).weights
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_invariant_measure_perturbed_frozen():
    # a = 0.25, eps = 0.1: Pi_eps = ((a + eps)/2a, (a - eps)/2a) = (0.7, 0.3)
    pi = invariant_measure(two_state_perturbed(0.25, 0.1)).weights
    assert pi == pytest.approx([0.7, 0.3], abs=1e-12)


def test_invariant_measure_reducible_raises():
    with pytest.raises(ValueError):
        invariant_measure(FiniteKernel(np.eye(3)))


@given(stochastic_matrices())
@settings(max_examples=50, deadline=None)
def test_invariant_measure_is_fixed_point(P):
    pi = invariant_measure(P).weights
    assert pi @ P.matrix == pytest.approx(pi, abs=1e-9)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Cesaro TV and sharpness
# ---------------------------------------------------------------------------


def test_cesaro_tv_frozen():
    # alpha = 0.5 chain started at a point: tv0 = 0.5, t = 2 gives 3/8 * ...
    P = two_state_symmetric(0.25)
    nu = FiniteMeasure(np.array([0.0, 1.0]))
    assert cesaro_tv(nu, P, 2) == pytest.approx(0.375, abs=1e-15)
    assert cesaro_tv(nu, P, 1) == pytest.approx(0.5, abs=1e-15)


def test_two_state_attains_tv_bound():
    """The symmetric chain meets the exact-chain TV bound with equality —
    the sharpness construction behind the bound's constant."""
    for a in (0.05, 0.25, 0.45):
        P = two_state_symmetric(a)
        nu = FiniteMeasure(np.array([0.0, 1.0]))
        for t in (1, 2, 3, 10, 50):
            bound = tv_bound_exact(2 * a, BoundInputs(t=t, tv0=0.5))
            assert cesaro_tv(nu, P, t) == pytest.approx(bound, abs=1e-13)


def test_cesaro_tv_stationary_start_is_zero():
    P = two_state_perturbed(0.25, 0.05)
    nu = invariant_measure(P)
    for t in (1, 7, 40):
        assert cesaro_tv(nu, P, t) == pytest.approx(0.0, abs=1e-12)


def _suite_cases():
    """(nu, P) pairs of the verify-finite suite, then random 3-16-state
    kernels with random initial laws."""
    for a in (0.05, 0.25, 0.45):
        for gamma in (0.0, 0.2):
            yield FiniteMeasure(np.array([gamma, 1.0 - gamma])), two_state_symmetric(a)
    for eps in (0.01, 0.05, 0.1):
        yield FiniteMeasure(np.array([0.0, 1.0])), two_state_shifted(0.25, eps)
    g = np.random.default_rng(17)
    for K in range(3, 17):
        w = g.uniform(size=K)
        yield FiniteMeasure(w / w.sum()), _random_kernel(g, K)


def test_cesaro_tv_curve_equals_scalar_calls():
    """Each entry of a curve is the scalar call at that t, bit for bit, and
    a scalar call is the per-t loop's arithmetic; t unsorted and repeated."""
    ts = np.array([7, 1, 200, 3, 7, 50, 1, 2, 199])
    for nu, P in _suite_cases():
        curve = cesaro_tv(nu, P, ts)
        assert curve.shape == ts.shape
        assert curve.tolist() == [cesaro_tv(nu, P, t) for t in ts.tolist()]
        pi = invariant_measure(P).weights
        for t in (1, 7, 50):
            cur, acc = nu.weights.copy(), np.zeros(P.n_states)
            for _ in range(t):
                acc += cur
                cur = cur @ P.matrix
            assert cesaro_tv(nu, P, t) == 0.5 * float(np.abs(pi - acc / t).sum())
    assert isinstance(cesaro_tv(nu, P, 3), float)
    assert cesaro_tv(nu, P, ts.reshape(3, 3)).shape == (3, 3)


def test_exact_autocovariance_curve_equals_scalar_calls():
    ks = np.array([5, 0, 19, 2, 5, 0, 11, 1])
    g = np.random.default_rng(5)
    for _, P in _suite_cases():
        f = g.normal(size=P.n_states)
        curve = exact_autocovariance(P, f, ks)
        assert curve.tolist() == [exact_autocovariance(P, f, k) for k in ks.tolist()]
        pi = invariant_measure(P).weights
        for k in (0, 2, 11):
            pkf = f.copy()
            for _ in range(k):
                pkf = P.matrix @ pkf
            mean = float(pi @ f)
            assert exact_autocovariance(P, f, k) == float(pi @ (f * pkf)) - mean * mean
    assert isinstance(exact_autocovariance(P, f, 3), float)


def test_curves_refuse_one_bad_point():
    P = two_state_symmetric(0.25)
    nu = FiniteMeasure(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        cesaro_tv(nu, P, np.array([3, 1, 0, 5]))
    with pytest.raises(ValueError):
        cesaro_tv(nu, P, 0)
    with pytest.raises(ValueError):
        exact_autocovariance(P, np.array([-1.0, 1.0]), np.array([2, -1, 4]))
    with pytest.raises(ValueError):
        exact_autocovariance(P, np.array([-1.0, 1.0]), -1)


def test_kernel_tv_sup():
    a, eps = 0.25, 0.07
    assert kernel_tv_sup(two_state_symmetric(a), two_state_perturbed(a, eps)) == (
        pytest.approx(eps, abs=1e-15)
    )
    assert kernel_tv_sup(two_state_symmetric(a), two_state_shifted(a, eps)) == (
        pytest.approx(eps, abs=1e-15)
    )
    with pytest.raises(ValueError):
        kernel_tv_sup(two_state_symmetric(a), FiniteKernel(np.eye(3)))


# ---------------------------------------------------------------------------
# exact law of the ergodic average
# ---------------------------------------------------------------------------


def test_ergodic_average_law_t1():
    P = two_state_symmetric(0.3)
    nu = FiniteMeasure(np.array([0.2, 0.8]))
    support, probs = ergodic_average_law(P, np.array([-1.0, 1.0]), nu, 1)
    assert support == pytest.approx([-1.0, 1.0])
    assert probs == pytest.approx([0.2, 0.8])


def test_ergodic_average_law_t2_hand_computed():
    """Two steps of the a = 0.25 symmetric chain from state 1 with
    f = (0, 1): average is 1/2 with prob 0.25 + 0.25 mixing... enumerated
    by hand: paths 11 (p .75), 10 (p .25) from start 1."""
    P = two_state_symmetric(0.25)
    nu = FiniteMeasure(np.array([0.0, 1.0]))
    support, probs = ergodic_average_law(P, np.array([0.0, 1.0]), nu, 2)
    # averages: (1+1)/2 = 1 w.p. 0.75, (1+0)/2 = 0.5 w.p. 0.25
    assert support == pytest.approx([0.5, 1.0])
    assert probs == pytest.approx([0.25, 0.75])


@given(stochastic_matrices(max_states=4), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_ergodic_average_law_is_probability(P, t):
    rng = np.random.default_rng(0)
    f = rng.normal(size=P.n_states)
    nu_w = rng.uniform(size=P.n_states) + 0.01
    nu = FiniteMeasure(nu_w / nu_w.sum())
    support, probs = ergodic_average_law(P, f, nu, t)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= 0.0)
    assert np.all(np.diff(support) > 0)
    # mean of the law equals the Cesaro-average of the marginal means
    cur = nu.weights.copy()
    acc = 0.0
    for _ in range(t):
        acc += float(cur @ f)
        cur = cur @ P.matrix
    assert float(support @ probs) == pytest.approx(acc / t, abs=1e-9)


def test_ergodic_average_law_step_cap():
    P = two_state_symmetric(0.25)
    nu = FiniteMeasure(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ergodic_average_law(P, np.array([0.0, 1.0]), nu, MAX_DP_STEPS + 1)


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------


def test_autocovariance_two_state_geometric():
    P = two_state_symmetric(0.25)
    f = np.array([-1.0, 1.0])
    for k in range(10):
        assert exact_autocovariance(P, f, k) == pytest.approx(0.5**k, abs=1e-13)


def test_autocovariance_matches_monte_carlo():
    P = two_state_symmetric(0.1)
    f = np.array([0.0, 3.0])
    rng = SeededRng(7)
    nu = invariant_measure(P)
    path = simulate_path(rng, P, nu, 200_000)
    x = f[path]
    xc = x - x.mean()
    emp = float(xc[:-2] @ xc[2:]) / (len(x) - 2)
    assert exact_autocovariance(P, f, 2) == pytest.approx(emp, abs=0.05)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------


def test_simulate_path_reproducible():
    P = two_state_symmetric(0.25)
    nu = FiniteMeasure(np.array([0.5, 0.5]))
    p1 = simulate_path(SeededRng(3), P, nu, 1000)
    p2 = simulate_path(SeededRng(3), P, nu, 1000)
    assert np.array_equal(p1, p2)
    assert len(p1) == 1000


def test_simulate_path_matches_per_step_searchsorted():
    """Same draws, same path as a per-step ``np.searchsorted`` over the
    cumulative rows, on a random 5-state kernel."""
    M = np.random.default_rng(5).uniform(size=(5, 5)) + 0.01
    P = FiniteKernel(M / M.sum(axis=1, keepdims=True))
    nu = FiniteMeasure(np.full(5, 0.2))
    path = simulate_path(SeededRng(8), P, nu, 2000)
    rng = SeededRng(8)
    state = int(np.searchsorted(np.cumsum(nu.weights), rng.uniform(), side="right"))
    expected = [state]
    cdf = np.cumsum(P.matrix, axis=1)
    for u in rng.uniform(size=1999):
        state = int(np.searchsorted(cdf[state], u, side="right"))
        expected.append(state)
    assert np.array_equal(path, expected)


def test_simulate_path_occupation_matches_stationary():
    P = two_state_symmetric(0.25)
    nu = invariant_measure(P)
    path = simulate_path(SeededRng(11), P, nu, 100_000)
    assert path.mean() == pytest.approx(0.5, abs=0.01)
