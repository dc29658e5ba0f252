"""Latent-class contingency-table samplers and the rounded-Gaussian
multinomial surrogate."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from amcmc.distributions import SeededRng, sample_dirichlet
from amcmc.mixture import (
    ContingencyData,
    MixturePriors,
    MixtureState,
    _allocate,
    approx_multinomial_draw,
    cell_probability,
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
    """Over every cell of the grid pi sums to 1, and each entry is the
    per-cell product nu lambda^(0)_{., c_0} ... lambda^(p-1)_{., c_p-1}
    summed over the classes, bit for bit."""
    for p, d, K in ((2, 3, 2), (3, 4, 30)):
        _, nu, lam, _ = simulate_contingency(SeededRng(0), p=p, d=d, K=K, N=10)
        index = np.array(list(itertools.product(range(d), repeat=p)))
        got = cell_probability(nu, lam, index)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        for cell, value in zip(index.tolist(), got.tolist()):
            w = nu.copy()
            for j, c in enumerate(cell):
                w = w * lam[j, :, c]
            assert value == float(w.sum())


def test_cell_probability_refuses_rows_off_the_grid():
    """A negative entry once read lambda from the end of its row: at p = 2,
    d = 4 the cells (-1, 0) and (3, 0) both gave pi = 0.01928."""
    _, nu, lam, _ = simulate_contingency(SeededRng(0), p=2, d=4, K=3, N=10)
    for index in ([[-1, 0]], [[0, 4]], [[3, 0], [0, -1]], [[0, 0, 0]], [[0]], [0, 0]):
        with pytest.raises(ValueError, match=r"p = 2 entries in \[0, 4\)"):
            cell_probability(nu, lam, np.array(index))
    assert cell_probability(nu, lam, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_latent_class_probs_bayes_rule():
    nu = np.array([0.3, 0.7])
    lam = np.array([[[0.9, 0.1], [0.2, 0.8]]])  # p=1, K=2, d=2
    state = MixtureState(nu, lam, {})
    w = latent_class_probs(state, (0,))
    want = np.array([0.3 * 0.9, 0.7 * 0.2])
    assert w == pytest.approx(want / want.sum(), abs=1e-12)
    # a cell off the table's grid has no probabilities
    for cell in [(2,), (-1,), (0, 0), ()]:
        with pytest.raises(ValueError):
            latent_class_probs(state, cell)


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
    """The TV oracle's normal pdf, cdf and multinomial pmf, written with
    ``math``, against their scipy.stats originals.  The pdf keeps
    norm.pdf's bits.  Where norm.cdf is a normal double, the cdf is within
    max(32, x^2 / 2) ulp of it: both forms lose about x^2 / 3 ulp in the
    lower tail through erfc (measured: 27 ulp on [-10, 40], 123 on
    [-20, -10], 506 on [-38, -30]).  Below that both are 0 or subnormal.
    The pmf is exp of a sum of log-factorials as large as log n!, so it is
    held to 4 eps (1 + log n!) relative (2.7 eps (1 + log n!) measured,
    3836 ulp at n = 200)."""
    from scipy.stats import multinomial as sp_multinomial

    from amcmc.mixture import _multinomial_pmf, _ndtr, _norm_pdf

    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-np.inf, np.inf, 0.0, -0.0]])
    assert np.array_equal(_norm_pdf(x), norm.pdf(x))
    got, want = _ndtr(x), norm.cdf(x)
    normal = want >= np.finfo(np.float64).tiny
    ulps = np.abs(got - want)[normal] / np.spacing(want[normal])
    assert np.all(ulps <= np.maximum(32.0, 0.5 * x[normal] ** 2))
    assert np.all(got[~normal] < np.finfo(np.float64).tiny)
    eps = np.finfo(np.float64).eps
    gen = np.random.default_rng(9)
    for n in (1, 7, 60, 200):
        for K in (2, 3):
            probs = gen.dirichlet(np.ones(K))
            a = np.arange(n + 1)
            grid = np.array([g.ravel() for g in np.meshgrid(*[a] * (K - 1), indexing="ij")]).T
            grid = grid[grid.sum(axis=1) <= n]
            counts = np.column_stack([grid, n - grid.sum(axis=1)])
            got, want = _multinomial_pmf(counts, n, probs), sp_multinomial.pmf(counts, n, probs)
            assert np.all(np.abs(got - want) <= 4 * eps * (1.0 + math.lgamma(n + 1)) * want), (n, K)
    # probabilities off the simplex by more than 10 eps: both replace the
    # last one by one minus the others
    probs = np.array([0.5, 0.3, 0.2 + 1e-12])
    counts = np.array([[3, 2, 1], [0, 0, 6]])
    with pytest.warns(FutureWarning):
        want = sp_multinomial.pmf(counts, 6, probs)
    np.testing.assert_allclose(_multinomial_pmf(counts, 6, probs), want, rtol=4 * eps * (1.0 + math.lgamma(7)), atol=0.0)


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
            est.append(cell_probability(state.nu, state.lam, np.array([top]))[0])
    assert np.mean(est) == pytest.approx(data.cells[top] / data.total, rel=0.25)


def test_allocations_map_the_swept_table_cells_to_their_rows():
    """A sweep's Z maps each cell of the table it swept, full or a prefix,
    in sorted order, to its allocation row, as the dict of rows it replaced:
    the rows of the sweep's allocation draw, replayed at the same seed.  A Z
    kept from an earlier sweep reads the same after later sweeps."""
    priors = MixturePriors()
    data = simulate_contingency(SeededRng(0, 0), p=3, d=5, K=3, N=2000)[0]
    sub = data.prefix(data.total // 3)
    beyond = data.ordered_cells()[sub.n_cells]
    assert beyond not in sub.cells
    unoccupied = next(c for c in itertools.product(range(data.d), repeat=data.p) if c not in data.cells)
    state = init_state(SeededRng(2, 1), data, priors)
    kept = []
    for i, (table, n_min) in enumerate([(data, math.inf), (sub, 30.0), (data, 30.0), (sub, math.inf), (data, 0.0)]):
        probs = np.array([latent_class_probs(state, c) for c in table.ordered_cells()])
        if math.isinf(n_min):
            state = gibbs_step_exact(SeededRng(3, i), state, table, priors)
        else:
            state = gibbs_step_approx(SeededRng(3, i), state, table, priors, n_min)
        Z = state.Z
        assert set(Z) == set(table.cells) and list(Z) == table.ordered_cells() and len(Z) == table.n_cells
        for c, n_c in table.cells.items():
            assert Z[c].shape == (data.K,) and Z[c].dtype == np.int64
            assert np.all(Z[c] >= 0) and Z[c].sum() == n_c
        for c in ((data.d, 0), unoccupied) + ((beyond,) if table is sub else ()):
            with pytest.raises(KeyError):
                Z[c]
            assert c not in Z
        rows = _allocate(SeededRng(3, i), table.counts, probs, n_min)
        old = dict(zip(table.ordered_cells(), rows))
        new = dict(Z)
        assert list(new) == list(old) and all(np.array_equal(new[c], old[c]) for c in old)
        assert dict(Z.items()).keys() == old.keys()
        kept.append((Z, old))
    for Z, old in kept:
        assert all(np.array_equal(Z[c], old[c]) for c in old)


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

    def root(self, n_c, nu_h):
        """A root of the covariance n_c (diag nu_h - nu_h nu_h'): its
        Cholesky factor, or where that fails the symmetric root from eigh."""
        cov = n_c * (np.diag(nu_h) - np.outer(nu_h, nu_h))
        try:
            root = np.linalg.cholesky(cov)
            self.hits["cholesky"] += 1
        except np.linalg.LinAlgError:
            self.hits["eigh"] += 1
            vals, vecs = np.linalg.eigh(cov)
            root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        return root

    def rounded_gaussian(self, n_c, nu_h, z):
        """The classes H of a Gaussian cell from the standard normals z:
        rounded, clamped at zero, the excess over n_c trimmed from the
        largest entries."""
        self.hits["gaussian cell"] += 1
        w = n_c * nu_h + self.root(n_c, nu_h) @ z
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
        return z_h

    def complete(self, gen, n_c, nu_tilde, H, z_h):
        """A Gaussian cell's allocation: z_h on H and the remainder drawn
        over the other classes."""
        K = len(nu_tilde)
        if len(H) == K:
            self.hits["|H| = K"] += 1
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
                z[H[int(np.argmax(nu_tilde[H]))]] += remainder
        return z

    def exact(self, gen, n_c, nu_tilde):
        self.hits["exact cell"] += 1
        return _sequential_binomial_multinomial(gen, n_c, nu_tilde)

    def draw(self, gen, n_c, nu_tilde, n_min):
        """One cell's allocation, its normals drawn just before its
        multinomial."""
        H = np.where(n_c * nu_tilde > n_min)[0]
        if len(H) == 0:
            return self.exact(gen, n_c, nu_tilde)
        z_h = self.rounded_gaussian(n_c, nu_tilde[H], gen.standard_normal(size=len(H)))
        return self.complete(gen, n_c, nu_tilde, H, z_h)

    def allocate(self, gen, counts, probs, n_min):
        return [self.draw(gen, n_c, nu, n_min) for n_c, nu in zip(counts, probs)]

    def sweep(self, gen, state, data, priors, n_min):
        K, p, d = data.K, data.p, data.d
        cells = sorted(data.cells)
        counts = [data.cells[c] for c in cells]
        Z = dict(zip(cells, self.allocate(gen, counts, [self.class_probs(state, c) for c in cells], n_min)))
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


class _TwoPassSweep(_PerCellSweep):
    """The per-cell sweeps in the batched allocation's variate order: the
    standard normals of every Gaussian cell first, cell by cell in one
    call, then one multinomial per cell in cell order."""

    def root(self, n_c, nu_h):
        """sqrt(n_c) (diag(r) - c nu_h r'), r = sqrt(nu_h) and
        c = 1 / (1 + sqrt(1 - sum nu_h))."""
        r = np.sqrt(nu_h)
        c = 1.0 / (1.0 + math.sqrt(max(1.0 - nu_h.sum(), 0.0)))
        return math.sqrt(n_c) * (np.diag(r) - c * np.outer(nu_h, r))

    def allocate(self, gen, counts, probs, n_min):
        H = [np.where(n_c * nu > n_min)[0] for n_c, nu in zip(counts, probs)]
        sizes = [len(h) for h in H]
        normals = np.split(gen.standard_normal(size=sum(sizes)), np.cumsum(sizes)[:-1])
        Z = []
        for n_c, nu, h, z in zip(counts, probs, H, normals):
            if len(h) == 0:
                Z.append(self.exact(gen, n_c, nu))
            else:
                Z.append(self.complete(gen, n_c, nu, h, self.rounded_gaussian(n_c, nu[h], z)))
        return Z


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
        want = _sequential_binomial_multinomial(SeededRng(i), n, p)
        assert np.array_equal(got, want), (n, p)
        assert got.dtype == np.int64
        # and the two left the generator in the same place
        ref = SeededRng(i)
        _sequential_binomial_multinomial(ref, n, p)
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
    """Five chained sweeps per case: the exact sweep against the per-cell
    loop, the approximate sweeps against the same loop in the batched
    variate order.  Together the cases reach every branch of the per-cell
    code."""
    per_cell, two_pass = _PerCellSweep(), _TwoPassSweep()
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
                old = per_cell.sweep(ref_rng, old, data, priors, n_min)
            else:
                new = gibbs_step_approx(new_rng, new, data, priors, n_min)
                old = two_pass.sweep(ref_rng, old, data, priors, n_min)
            _assert_same_state(new, old)
        assert new_rng.uniform() == ref_rng.uniform()
    assert set(per_cell.hits) == {"exact cell"}
    want = {
        "exact cell", "gaussian cell", "|H| = K", "excess trim", "complement draw",
        "zero complement mass", "remainder, empty complement", "dirichlet zero total",
    }
    assert want <= set(two_pass.hits), want - set(two_pass.hits)


def test_approx_draw_and_class_probs_match_per_cell_code():
    ref = _TwoPassSweep()
    gen = np.random.default_rng(5)
    for i in range(200):
        K = int(gen.integers(1, 6))
        nu = gen.dirichlet(np.ones(K))
        n_c = int(gen.choice([1, 10, 100, 5000]))
        n_min = float(gen.choice([0.0, 5.0, 50.0, math.inf]))
        got = approx_multinomial_draw(SeededRng(i), n_c, nu, n_min)
        assert np.array_equal(got, ref.allocate(SeededRng(i), [n_c], [nu], n_min)[0])
    # whole tables, cells of every kind mixed
    for i in range(100):
        K, cells = int(gen.integers(1, 6)), int(gen.integers(1, 30))
        counts = gen.choice([1, 3, 10, 100, 5000], size=cells)
        probs = gen.dirichlet(np.full(K, 0.5), size=cells)
        n_min = float(gen.choice([0.0, 5.0, 50.0]))
        rng, ref_rng = SeededRng(100 + i), SeededRng(100 + i)
        got = _allocate(rng, counts, probs, n_min)
        assert np.array_equal(got, ref.allocate(ref_rng, counts, probs, n_min))
        assert rng.uniform() == ref_rng.uniform()
    _, nu, lam, _ = simulate_contingency(SeededRng(6), p=3, d=4, K=3, N=10)
    state = MixtureState(nu, lam, {})
    for cell in [(0, 0, 0), (3, 1, 2), (2, 3, 3)]:
        assert np.array_equal(latent_class_probs(state, cell), ref.class_probs(state, cell))


def test_batched_draw_has_the_law_of_the_per_cell_draw():
    """Per (cell, class), the mean and variance of 6000 batched draws match
    those of 6000 draws of the per-cell code they replaced, as z-scores
    within 4.5 (30 scores).  The cells are exact, Gaussian on one or two
    classes, and Gaussian on every class."""
    counts = np.array([5, 40, 200, 400, 3000])
    probs = np.array([
        [0.3, 0.3, 0.4], [0.7, 0.2, 0.1], [0.6, 0.35, 0.05], [0.5, 0.3, 0.2], [0.9, 0.098, 0.002],
    ])
    n_min, R = 20.0, 6000
    batched = _allocate(SeededRng(31), np.tile(counts, R), np.tile(probs, (R, 1)), n_min)
    batched = batched.reshape(R, len(counts), 3)
    gen, ref = SeededRng(32), _PerCellSweep()
    per_cell = np.array([[ref.draw(gen, n, nu, n_min) for n, nu in zip(counts, probs)] for _ in range(R)])
    assert {"exact cell", "complement draw", "|H| = K"} <= set(ref.hits)
    moments = []
    for x in (batched, per_cell):
        assert np.all(x >= 0) and np.array_equal(x.sum(axis=2), np.broadcast_to(counts, (R, len(counts))))
        dev = x - x.mean(axis=0)
        var = (dev**2).mean(axis=0)
        moments.append((x.mean(axis=0), var, (dev**4).mean(axis=0) - var**2))
    (m1, v1, k1), (m2, v2, k2) = moments
    z_mean = (m1 - m2) / np.sqrt((v1 + v2) / R)
    z_var = (v1 - v2) / np.sqrt((k1 + k2) / R)
    assert np.abs(z_mean).max() < 4.5, z_mean
    assert np.abs(z_var).max() < 4.5, z_var


def test_closed_form_root_squares_to_the_multinomial_covariance():
    """R R' = n (diag nu_H - nu_H nu_H') for the root the batched draw uses,
    to 1e-12 n: H a strict subset of the classes, H every class (the
    singular covariance, sum nu_H = 1), one class, and tiny weights."""
    gen = np.random.default_rng(8)
    cases = [np.array([1.0]), np.array([1e-9]), np.array([0.5, 0.5]), np.array([1e-12, 1 - 1e-12])]
    for K in (2, 3, 5, 8):
        nu = gen.dirichlet(np.ones(K))
        cases += [nu, nu[: K - 1], nu[::2]]
    for nu_h in cases:
        for n_c in (1, 57, 5000):
            R = _TwoPassSweep().root(n_c, nu_h)
            cov = n_c * (np.diag(nu_h) - np.outer(nu_h, nu_h))
            assert np.abs(R @ R.T - cov).max() <= 1e-12 * n_c, (nu_h, n_c)


@st.composite
def allocation_tables(draw):
    """Up to 8 cells over K <= 6 classes, counts 1..5000; each class is
    zero in every cell with probability 1/4 and the others draw their
    weights per cell."""
    K = draw(st.integers(1, 6))
    cells = draw(st.integers(1, 8))
    zero = np.array(draw(st.lists(st.booleans(), min_size=K, max_size=K)))
    zero &= np.array(draw(st.lists(st.booleans(), min_size=K, max_size=K)))
    zero[draw(st.integers(0, K - 1))] = False
    counts = np.array(draw(st.lists(st.integers(1, 5000), min_size=cells, max_size=cells)))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cells * K, max_size=cells * K)))
    w = np.where(zero, 0.0, w.reshape(cells, K))
    return counts, w / w.sum(axis=1, keepdims=True)


@given(table=allocation_tables(), n_min=st.floats(0.0, 100.0), seed=st.integers(0, 2**16 - 1))
@settings(max_examples=200, deadline=None)
def test_allocate_rows_hold_their_counts_and_h_its_gaussian_draw(table, n_min, seed):
    counts, probs = table
    Z = _allocate(SeededRng(seed), counts, probs, n_min)
    assert Z.shape == probs.shape and Z.dtype == np.int64
    assert np.all(Z >= 0) and np.array_equal(Z.sum(axis=1), counts)
    # the normals come first: rebuild each Gaussian cell's rounded draw
    H = counts[:, None] * probs > n_min
    normals = iter(SeededRng(seed).standard_normal(int(H.sum())))
    ref = _TwoPassSweep()
    for z, n_c, nu, h in zip(Z, counts, probs, H):
        if not h.any():
            continue
        z_h = ref.rounded_gaussian(n_c, nu[h], np.array([next(normals) for _ in range(h.sum())]))
        if h.all():
            # no class outside H: the remainder goes to the most probable
            z_h[np.argmax(nu)] += n_c - z_h.sum()
        assert np.array_equal(z[h], z_h), (z, z_h, h)


@pytest.mark.parametrize("n_min", [0.0, 50.0, math.inf])
def test_allocate_on_an_empty_table(n_min):
    Z = _allocate(SeededRng(0), np.zeros(0, dtype=np.int64), np.zeros((0, 4)), n_min)
    assert Z.shape == (0, 4) and Z.dtype == np.int64
    # an empty ramp step sweeps the empty prefix of a table
    data, priors, _ = _small_setup()
    empty = data.prefix(0)
    state = gibbs_step_approx(SeededRng(1), init_state(SeededRng(2), data, priors), empty, priors, n_min)
    assert state.Z == {} and state.nu.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_contingency_totals():
    rng = SeededRng(8)
    data, nu, lam, true_pi = simulate_contingency(rng, p=3, d=3, K=2, N=1000)
    assert data.total == 1000
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(0 < v < 1 for v in true_pi.values())
    assert set(true_pi) == set(data.cells)


def test_simulate_contingency_counts_rows_as_the_row_loop():
    """The table holds what a loop over the observed rows counts, one tuple
    per row.  The rows are drawn again from a stream at the same seed.  At
    p = 64, d = 2 the cell space is 2**64, the most the guard lets through;
    at p = 40, d = 3 it passes 2**63 with a d that does not divide 2**64."""
    cases = [(3, 6, 3, 10_000), (2, 10, 3, 500), (4, 2, 2, 1), (64, 2, 2, 300), (40, 3, 2, 300)]
    for seed, (p, d, K, N) in enumerate(cases):
        data, nu, lam, _ = simulate_contingency(SeededRng(seed), p=p, d=d, K=K, N=N)
        rng = SeededRng(seed)
        assert np.array_equal(sample_dirichlet(rng, np.full(K, 1.0)), nu)
        assert np.array_equal(sample_dirichlet(rng, np.full((p, K, d), 1.0)), lam)
        z = rng.choice(K, size=N, p=nu)
        obs = np.empty((N, p), dtype=np.int64)
        for j in range(p):
            for h in range(K):
                mask = z == h
                if mask.any():
                    obs[mask, j] = rng.choice(d, size=int(mask.sum()), p=lam[j, h])
        cells = {}
        for row in obs:
            c = tuple(int(v) for v in row)
            cells[c] = cells.get(c, 0) + 1
        assert data.cells == cells
        assert all(type(v) is int for c in data.cells for v in c + (data.cells[c],))


def test_simulate_contingency_guards_cell_space():
    with pytest.raises(ValueError):
        simulate_contingency(SeededRng(0), p=40, d=10, K=2, N=10)
