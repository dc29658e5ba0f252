"""Latent-class contingency-table samplers and the rounded-Gaussian
multinomial surrogate."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from amcmc.distributions import SeededRng
from amcmc.mixture import (
    ContingencyData,
    MixturePriors,
    MixtureState,
    approx_multinomial_draw,
    cell_probability,
    gaussnmin_threshold,
    gibbs_step_approx,
    gibbs_step_exact,
    init_state,
    latent_class_probs,
    simulate_contingency,
    tv_multinomial_vs_rounded_gaussian,
)


@st.composite
def simplex_vectors(draw, min_size=2, max_size=6):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=min_size, max_size=max_size))
    v = np.array(raw)
    return v / v.sum()


# ---------------------------------------------------------------------------
# data container and model pieces
# ---------------------------------------------------------------------------


def test_contingency_validation():
    with pytest.raises(ValueError):
        ContingencyData({(0, 5): 1}, p=2, d=3, K=2)  # category out of range
    with pytest.raises(ValueError):
        ContingencyData({(0, 1): 0}, p=2, d=3, K=2)  # zero count
    with pytest.raises(ValueError):
        ContingencyData({(0, 1, 1): 2}, p=2, d=3, K=2)  # wrong length
    with pytest.raises(ValueError):
        ContingencyData({(0.5, 1): 2}, p=2, d=3, K=2)  # not an integer
    with pytest.raises(ValueError):
        ContingencyData({(0, 1): 2.5}, p=2, d=3, K=2)  # fractional count
    data = ContingencyData({(1, 2): 3, (0, 0): 1}, p=2, d=3, K=2)
    assert data.total == 4 and data.n_cells == 2
    assert data.ordered_cells() == [(0, 0), (1, 2)]
    assert data.index.tolist() == [[0, 0], [1, 2]] and data.counts.tolist() == [1, 3]
    empty = ContingencyData({}, p=2, d=3, K=2)
    assert empty.index.shape == (0, 2) and empty.total == 0


def _prefix_from_dict(data, total):
    """The burn-in ramp's sub-table as ``cli.run_mixture_experiment`` built
    it before ``prefix``: a dict filled cell by cell, then validated."""
    sub_cells = {}
    budget = total
    for c in data.ordered_cells():
        if budget <= 0:
            break
        take = min(data.cells[c], budget)
        sub_cells[c] = take
        budget -= take
    return ContingencyData(sub_cells, data.p, data.d, data.K)


def test_prefix_equals_the_table_built_from_a_dict():
    data = simulate_contingency(SeededRng(9), p=3, d=4, K=2, N=500)[0]
    counts = data.counts.copy()
    cum = np.cumsum(counts)
    # every cell boundary, one count either side of it, and past the total
    for total in sorted({0, 1, *cum, *(cum - 1), *(cum + 1), 2 * data.total}):
        got, want = data.prefix(int(total)), _prefix_from_dict(data, int(total))
        assert got == want  # cells, p, d and K
        assert got.ordered_cells() == want.ordered_cells()
        assert got.index.dtype == want.index.dtype and got.index.shape == want.index.shape
        assert np.array_equal(got.index, want.index)
        assert got.counts.dtype == want.counts.dtype and np.array_equal(got.counts, want.counts)
        assert got.total == min(int(total), data.total)
    assert np.array_equal(data.counts, counts)  # trimming a slice left the table whole


def test_cell_probabilities_sum_to_one():
    rng = SeededRng(0)
    _, nu, lam, _ = simulate_contingency(rng, p=2, d=3, K=2, N=10)
    total = sum(
        cell_probability(nu, lam, (i, j)) for i in range(3) for j in range(3)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_latent_class_probs_bayes_rule():
    nu = np.array([0.3, 0.7])
    lam = np.array([[[0.9, 0.1], [0.2, 0.8]]])  # p=1, K=2, d=2
    state = MixtureState(nu, lam, {})
    w = latent_class_probs(state, (0,))
    want = np.array([0.3 * 0.9, 0.7 * 0.2])
    assert w == pytest.approx(want / want.sum(), abs=1e-12)


# ---------------------------------------------------------------------------
# TV oracle: rounded Gaussian vs multinomial
# ---------------------------------------------------------------------------


def test_tv_binomial_hand_computed():
    """n=1, p=1/2: the rounded N(1/2, 1/4) puts mass Phi(0)-Phi(-2) on each
    of {0, 1}, so TV = 2 Phi(-2)."""
    got = tv_multinomial_vs_rounded_gaussian(1, [0.5, 0.5])
    assert got == pytest.approx(2.0 * norm.cdf(-2.0), abs=1e-12)


def test_tv_binomial_direct_summation_oracle():
    """Independent O(n) oracle for K=2 over a wide integer window."""
    n, p = 30, 0.3
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    z = np.arange(-200, 300)
    gauss = norm.cdf((z + 0.5 - mean) / sd) - norm.cdf((z - 0.5 - mean) / sd)
    mult = np.where((z >= 0) & (z <= n), binom.pmf(np.clip(z, 0, n), n, p), 0.0)
    want = 0.5 * (np.abs(mult - gauss).sum() + max(0.0, 1 - gauss.sum()))
    assert tv_multinomial_vs_rounded_gaussian(n, [p, 1 - p]) == pytest.approx(
        want, abs=1e-9
    )


def test_tv_trinomial_monte_carlo_oracle():
    """For K=3 check the quadrature against a seeded Monte-Carlo estimate of
    the rounded-Gaussian pmf."""
    n, probs = 12, np.array([0.5, 0.3, 0.2])
    head = probs[:2]
    mean = n * head
    cov = n * (np.diag(head) - np.outer(head, head))
    rng = np.random.default_rng(123)
    draws = np.rint(rng.multivariate_normal(mean, cov, size=400_000)).astype(int)
    from scipy.stats import multinomial as sp_multinomial

    # accumulate |mult - gauss| over the support seen plus multinomial support
    keys = {tuple(k) for k in draws} | {
        (i, j) for i in range(n + 1) for j in range(n + 1 - i)
    }
    tv = 0.0
    total_gauss = 0.0
    for i, j in keys:
        g = float(np.mean((draws[:, 0] == i) & (draws[:, 1] == j)))
        total_gauss += g
        m = (
            float(sp_multinomial.pmf([i, j, n - i - j], n, probs))
            if i >= 0 and j >= 0 and i + j <= n
            else 0.0
        )
        tv += abs(m - g)
    tv = 0.5 * (tv + max(0.0, 1.0 - total_gauss))
    assert tv_multinomial_vs_rounded_gaussian(n, probs) == pytest.approx(tv, abs=0.01)


def test_scipy_special_forms_equal_scipy_stats():
    """The TV oracle's normal pdf/cdf and multinomial pmf, written with
    scipy.special, give the bits of their scipy.stats originals."""
    from scipy.special import ndtr
    from scipy.stats import multinomial as sp_multinomial

    from amcmc.mixture import _multinomial_pmf, _norm_pdf

    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-np.inf, np.inf, 0.0, -0.0]])
    assert np.array_equal(ndtr(x), norm.cdf(x))
    assert np.array_equal(_norm_pdf(x), norm.pdf(x))
    gen = np.random.default_rng(9)
    for n in (1, 7, 60, 200):
        for K in (2, 3):
            probs = gen.dirichlet(np.ones(K))
            a = np.arange(n + 1)
            grid = np.array([g.ravel() for g in np.meshgrid(*[a] * (K - 1), indexing="ij")]).T
            grid = grid[grid.sum(axis=1) <= n]
            counts = np.column_stack([grid, n - grid.sum(axis=1)])
            assert np.array_equal(_multinomial_pmf(counts, n, probs), sp_multinomial.pmf(counts, n, probs))
    # probabilities off the simplex by more than 10 eps: both replace the
    # last one by one minus the others
    probs = np.array([0.5, 0.3, 0.2 + 1e-12])
    counts = np.array([[3, 2, 1], [0, 0, 6]])
    with pytest.warns(FutureWarning):
        want = sp_multinomial.pmf(counts, 6, probs)
    assert np.array_equal(_multinomial_pmf(counts, 6, probs), want)


def test_tv_decreases_with_n():
    probs = [0.5, 0.3, 0.2]
    tvs = [tv_multinomial_vs_rounded_gaussian(n, probs) for n in (10, 40, 160)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_tv_validation():
    with pytest.raises(ValueError):
        tv_multinomial_vs_rounded_gaussian(10, [0.25] * 4)
    with pytest.raises(ValueError):
        tv_multinomial_vs_rounded_gaussian(201, [0.5, 0.5])
    with pytest.raises(ValueError):
        tv_multinomial_vs_rounded_gaussian(10, [1.0, 0.0])


# ---------------------------------------------------------------------------
# the approximate allocation draw
# ---------------------------------------------------------------------------


@given(
    nu=simplex_vectors(),
    n_c=st.integers(1, 5000),
    n_min=st.floats(0.0, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_approx_draw_valid_counts(nu, n_c, n_min):
    z = approx_multinomial_draw(SeededRng(1), n_c, nu, n_min)
    assert z.sum() == n_c
    assert np.all(z >= 0)
    assert len(z) == len(nu)


def test_approx_draw_infinite_threshold_is_exact_multinomial():
    """n_min = inf leaves every class on the exact path, so the draw must
    match sample_multinomial variate for variate."""
    from amcmc.distributions import sample_multinomial

    nu = np.array([0.2, 0.5, 0.3])
    a = approx_multinomial_draw(SeededRng(2), 100, nu, math.inf)
    b = sample_multinomial(SeededRng(2), 100, nu)
    assert np.array_equal(a, b)


def test_approx_draw_moments_match_multinomial():
    nu = np.array([0.6, 0.3, 0.1])
    rng = SeededRng(3)
    draws = np.array([approx_multinomial_draw(rng, 500, nu, 20.0) for _ in range(4000)])
    assert draws.mean(axis=0) == pytest.approx(500 * nu, rel=0.02)
    assert draws[:, 0].std() == pytest.approx(math.sqrt(500 * 0.6 * 0.4), rel=0.1)


def test_approx_draw_rejects_negative_threshold():
    with pytest.raises(ValueError):
        approx_multinomial_draw(SeededRng(0), 10, np.array([0.5, 0.5]), -1.0)


# ---------------------------------------------------------------------------
# Gibbs sweeps
# ---------------------------------------------------------------------------


def _small_setup(seed=0, N=500):
    rng = SeededRng(seed, 0)
    priors = MixturePriors()
    data, nu, lam, true_pi = simulate_contingency(rng, p=2, d=4, K=2, N=N, priors=priors)
    return data, priors, true_pi


def test_gibbs_exact_step_shapes_and_consistency():
    data, priors, _ = _small_setup()
    rng = SeededRng(5, 1)
    state = init_state(rng, data, priors)
    state = gibbs_step_exact(rng, state, data, priors)
    assert state.nu.shape == (2,)
    assert state.lam.shape == (2, 2, 4)
    assert state.nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.lam.sum(axis=2), 1.0, atol=1e-12)
    for c, z in state.Z.items():
        assert z.sum() == data.cells[c]


def test_gibbs_approx_with_infinite_threshold_matches_exact():
    """With the Gaussian branch disabled both sweeps consume identical
    randomness and must coincide."""
    data, priors, _ = _small_setup()
    s0 = init_state(SeededRng(6, 1), data, priors)
    a = gibbs_step_exact(SeededRng(6, 2), s0, data, priors)
    b = gibbs_step_approx(SeededRng(6, 2), s0, data, priors, math.inf)
    assert np.array_equal(a.nu, b.nu)
    assert np.array_equal(a.lam, b.lam)


def test_gibbs_chains_recover_frequent_cell_probabilities():
    data, priors, true_pi = _small_setup(seed=1, N=4000)
    top = max(data.cells, key=data.cells.get)
    rng = SeededRng(7, 1)
    state = init_state(rng, data, priors)
    est = []
    for i in range(150):
        state = gibbs_step_exact(rng, state, data, priors)
        if i >= 50:
            est.append(cell_probability(state.nu, state.lam, top))
    assert np.mean(est) == pytest.approx(data.cells[top] / data.total, rel=0.25)


# ---------------------------------------------------------------------------
# the batched sweeps against the per-cell sweeps they replaced
# ---------------------------------------------------------------------------


def _sequential_binomial_multinomial(gen, n, p):
    """Multinomial counts drawn one binomial per category, in order."""
    counts = np.zeros(len(p), dtype=np.int64)
    remaining, rem_mass = n, 1.0
    for k in range(len(p) - 1):
        if remaining == 0:
            break
        q = p[k] / rem_mass if rem_mass > 0.0 else 1.0
        c = int(gen.binomial(remaining, min(max(q, 0.0), 1.0)))
        counts[k] = c
        remaining -= c
        rem_mass -= p[k]
    counts[-1] += remaining
    return counts


class _PerCellSweep:
    """The Gibbs sweeps as one loop over the cells, one draw per cell, and
    a loop of Dirichlet draws per (variable, class).  Counts the branches
    it takes, so a test can show which ones its tables reached."""

    def __init__(self):
        self.hits = Counter()

    def dirichlet(self, gen, conc):
        g = gen.gamma(conc)
        total = g.sum()
        if total == 0.0:
            self.hits["dirichlet zero total"] += 1
            out = np.zeros_like(conc)
            out[int(gen.integers(len(conc)))] = 1.0
            return out
        return g / total

    def class_probs(self, state, cell):
        with np.errstate(divide="ignore"):
            logw = np.log(state.nu).copy()
            for j, cj in enumerate(cell):
                logw += np.log(state.lam[j, :, cj])
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()

    def mvn(self, gen, mean, cov):
        cov = 0.5 * (cov + cov.T)
        try:
            root = np.linalg.cholesky(cov)
            self.hits["cholesky"] += 1
        except np.linalg.LinAlgError:
            self.hits["eigh"] += 1
            vals, vecs = np.linalg.eigh(cov)
            root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        return mean + root @ gen.standard_normal(size=len(mean))

    def draw(self, gen, n_c, nu_tilde, n_min):
        K = len(nu_tilde)
        H = np.where(n_c * nu_tilde > n_min)[0]
        if len(H) == 0:
            self.hits["exact cell"] += 1
            return _sequential_binomial_multinomial(gen, n_c, nu_tilde)
        self.hits["gaussian cell"] += 1
        if len(H) == K:
            self.hits["|H| = K"] += 1
        nu_h = nu_tilde[H]
        w = self.mvn(gen, n_c * nu_h, n_c * (np.diag(nu_h) - np.outer(nu_h, nu_h)))
        z_h = np.rint(w).astype(np.int64)
        np.maximum(z_h, 0, out=z_h)
        excess = int(z_h.sum()) - n_c
        if excess > 0:
            self.hits["excess trim"] += 1
        while excess > 0:
            i = int(np.argmax(z_h))
            take = min(excess, int(z_h[i]))
            z_h[i] -= take
            excess -= take
        z = np.zeros(K, dtype=np.int64)
        z[H] = z_h
        remainder = n_c - int(z_h.sum())
        comp = np.setdiff1d(np.arange(K), H)
        if remainder > 0:
            if len(comp) > 0:
                mass = nu_tilde[comp].sum()
                if mass > 0.0:
                    self.hits["complement draw"] += 1
                    z[comp] = _sequential_binomial_multinomial(gen, remainder, nu_tilde[comp] / mass)
                else:
                    self.hits["zero complement mass"] += 1
                    z[comp[0]] += remainder
            else:
                self.hits["remainder, empty complement"] += 1
                z[H[int(np.argmax(nu_h))]] += remainder
        return z

    def sweep(self, gen, state, data, priors, n_min):
        K, p, d = data.K, data.p, data.d
        Z = {c: self.draw(gen, data.cells[c], self.class_probs(state, c), n_min) for c in sorted(data.cells)}
        class_tot = np.zeros(K)
        margins = np.zeros((p, K, d))
        for c, z in Z.items():
            class_tot += z
            for j in range(p):
                margins[j, :, c[j]] += z
        lam = np.empty((p, K, d))
        for j in range(p):
            for h in range(K):
                lam[j, h] = self.dirichlet(gen, priors.a + margins[j, h])
        nu = self.dirichlet(gen, priors.alpha + class_tot)
        return MixtureState(nu, lam, Z)


def _assert_same_state(a, b):
    assert np.array_equal(a.nu, b.nu) and np.array_equal(a.lam, b.lam)
    assert list(a.Z) == list(b.Z)
    assert all(np.array_equal(a.Z[c], b.Z[c]) for c in a.Z)


def test_sample_multinomial_is_the_sequential_binomial_decomposition():
    from amcmc.distributions import sample_multinomial

    cases = [(0, [0.2, 0.3, 0.5]), (7, [1.0]), (0, [1.0]), (5, [0.0, 1.0, 0.0]), (12, [0.5, 0.5, 0.0])]
    gen = np.random.default_rng(0)
    for _ in range(300):
        K = int(gen.integers(1, 9))
        n = int(gen.choice([0, 1, 3, 40, 1000, 100_000]))
        cases.append((n, gen.dirichlet(np.full(K, gen.choice([0.05, 1.0, 20.0])))))
    for i, (n, p) in enumerate(cases):
        p = np.asarray(p, dtype=np.float64)
        rng = SeededRng(i)
        got = sample_multinomial(rng, n, p)
        want = _sequential_binomial_multinomial(SeededRng(i)._gen, n, p)
        assert np.array_equal(got, want), (n, p)
        assert got.dtype == np.int64
        # and the two left the generator in the same place
        ref = SeededRng(i)
        _sequential_binomial_multinomial(ref._gen, n, p)
        assert rng.uniform() == ref.uniform()
    # off the simplex by less than the 1e-9 tolerance, past numpy's 1e-12
    for p, want in (([1 + 5e-10, 0.0], [5, 0]), ([0.0, 1 + 5e-10, 0.0], [0, 5, 0])):
        assert sample_multinomial(SeededRng(0), 5, p).tolist() == want
    z = sample_multinomial(SeededRng(0), 50, [0.6, 0.4 + 5e-10, 0.0])
    assert z.sum() == 50 and z[2] == 0


_SWEEP_CASES = [
    # (p, d, K, N), priors, n_min, how many classes start at weight 0
    # exact-only cells
    ((2, 4, 3, 2000), MixturePriors(), math.inf, 0),
    # Gaussian and exact cells, excess trims, complement draws
    ((2, 4, 3, 2000), MixturePriors(), 30.0, 0),
    ((3, 3, 2, 3000), MixturePriors(0.5, 2.0), 10.0, 0),
    # |H| = K on every cell: singular covariances, remainders with an empty
    # complement
    ((2, 3, 3, 1500), MixturePriors(), 0.0, 0),
    # two classes with zero weight and tiny priors: zero complement mass
    # (three Gaussian classes, so rounding can fall short) and the
    # Dirichlet zero-total fallback
    ((2, 4, 5, 2000), MixturePriors(1e-300, 1e-300), 0.0, 2),
    ((2, 4, 5, 2000), MixturePriors(1e-300, 1e-300), 40.0, 2),
]


def test_batched_sweeps_match_per_cell_sweeps_bit_for_bit():
    """Five chained sweeps per case; together the cases reach every branch
    of the per-cell code."""
    ref = _PerCellSweep()
    for (p, d, K, N), priors, n_min, zero_classes in _SWEEP_CASES:
        data, *_ = simulate_contingency(SeededRng(11, 0), p=p, d=d, K=K, N=N)
        state = init_state(SeededRng(11, 1), data, MixturePriors())
        if zero_classes:
            state.nu[K - zero_classes:] = 0.0
            state.nu /= state.nu.sum()
        new_rng, ref_rng = SeededRng(12, 1), SeededRng(12, 1)
        new = old = state
        for _ in range(5):
            if math.isinf(n_min):
                new = gibbs_step_exact(new_rng, new, data, priors)
            else:
                new = gibbs_step_approx(new_rng, new, data, priors, n_min)
            old = ref.sweep(ref_rng._gen, old, data, priors, n_min)
            _assert_same_state(new, old)
        assert new_rng.uniform() == ref_rng.uniform()
    want = {
        "exact cell", "gaussian cell", "cholesky", "eigh", "|H| = K", "excess trim",
        "complement draw", "zero complement mass", "remainder, empty complement",
        "dirichlet zero total",
    }
    assert want <= set(ref.hits), want - set(ref.hits)


def test_approx_draw_and_class_probs_match_per_cell_code():
    ref = _PerCellSweep()
    gen = np.random.default_rng(5)
    for i in range(200):
        K = int(gen.integers(1, 6))
        nu = gen.dirichlet(np.ones(K))
        n_c = int(gen.choice([1, 10, 100, 5000]))
        n_min = float(gen.choice([0.0, 5.0, 50.0, math.inf]))
        got = approx_multinomial_draw(SeededRng(i), n_c, nu, n_min)
        assert np.array_equal(got, ref.draw(SeededRng(i)._gen, n_c, nu, n_min))
    _, nu, lam, _ = simulate_contingency(SeededRng(6), p=3, d=4, K=3, N=10)
    state = MixtureState(nu, lam, {})
    for cell in [(0, 0, 0), (3, 1, 2), (2, 3, 3)]:
        assert np.array_equal(latent_class_probs(state, cell), ref.class_probs(state, cell))


# ---------------------------------------------------------------------------
# threshold advisory and simulation
# ---------------------------------------------------------------------------


def test_gaussnmin_threshold_scalings():
    nu = np.array([0.5, 0.3, 0.2])
    H = [0, 1]
    base = gaussnmin_threshold(nu, H, epsilon=0.1, n_cells=10)
    # quadratic in 1/epsilon, inverse in the cell count, linear in C
    assert gaussnmin_threshold(nu, H, 0.05, 10) == pytest.approx(4 * base)
    assert gaussnmin_threshold(nu, H, 0.1, 20) == pytest.approx(base / 2)
    assert gaussnmin_threshold(nu, H, 0.1, 10, C_const=3.0) == pytest.approx(3 * base)
    with pytest.raises(ValueError):
        gaussnmin_threshold(nu, H, 0.0, 10)
    with pytest.raises(ValueError):
        gaussnmin_threshold(np.array([1.0, 0.0]), [0], 0.1, 10)


def test_simulate_contingency_totals():
    rng = SeededRng(8)
    data, nu, lam, true_pi = simulate_contingency(rng, p=3, d=3, K=2, N=1000)
    assert data.total == 1000
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(0 < v < 1 for v in true_pi.values())
    assert set(true_pi) == set(data.cells)


def test_simulate_contingency_guards_cell_space():
    with pytest.raises(ValueError):
        simulate_contingency(SeededRng(0), p=40, d=10, K=2, N=10)
