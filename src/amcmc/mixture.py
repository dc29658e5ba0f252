"""Exact and approximate Gibbs samplers for a latent-class model of sparse
contingency tables.

Model: cell probabilities pi(c) = sum_h nu_h prod_j lambda^(j)_{h, c_j}
with Dirichlet priors on the class weights nu and the per-variable,
per-class category profiles lambda.  The exact Gibbs sweep draws, for every
occupied cell, the latent class allocation Z(c) ~ Multinomial(n(c), nu~(c)),
then conjugate Dirichlet updates for lambda and nu.

The approximate sweep replaces each multinomial draw by a rounded Gaussian
on the high-expected-count classes H = {h : n(c) nu~_h > n_min} and an
exact multinomial on the complement.  ``tv_multinomial_vs_rounded_gaussian``
measures the exact per-draw TV cost of that substitution at enumerable
sizes.

Both sweeps work on the whole table at once: class probabilities as one
(cells x K) array, the exact cells' multinomials in as few numpy calls as
the Gaussian cells between them allow, and one Gamma draw for every lambda
row.  A seeded sweep consumes the variates of a loop over the cells in
sorted order.  The Gaussian draw saves no work here: numpy's binomial
sampler costs O(1) per class whatever n(c), while each Gaussian cell needs
its own draw in cell order.  On the benchmark's mixture table (215 cells,
K = 3, 44 of them Gaussian at n_min = 50) the approximate sweep runs at
about a quarter of the exact sweep's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.special import gammaln, ndtr, xlogy

# sample_multinomial and sample_mvn stay importable from this module: the
# benchmark's tracer (perfbench/workloads.py) wraps them by these names
from .distributions import SeededRng, sample_dirichlet, sample_multinomial, sample_mvn  # noqa: F401

__all__ = [
    "ContingencyData",
    "MixturePriors",
    "MixtureState",
    "latent_class_probs",
    "init_state",
    "gibbs_step_exact",
    "gibbs_step_approx",
    "approx_multinomial_draw",
    "tv_multinomial_vs_rounded_gaussian",
    "gaussnmin_threshold",
    "simulate_contingency",
    "cell_probability",
]

Cell = tuple[int, ...]


@dataclass(frozen=True)
class ContingencyData:
    """Sparse contingency table: only occupied cells are stored.

    ``index`` (cells x p) and ``counts`` hold the occupied cells in sorted
    order as arrays; the sweeps work on them."""

    cells: dict[Cell, int]
    p: int
    d: int
    K: int
    index: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: list[Cell] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = sorted(self.cells)
        if keys and set(map(len, keys)) != {self.p}:
            raise ValueError(f"every cell index needs p = {self.p} entries")
        index = np.fromiter(chain.from_iterable(keys), np.float64, len(keys) * self.p)
        counts = np.fromiter(map(self.cells.__getitem__, keys), np.float64, len(keys))
        if np.any((index < 0) | (index >= self.d) | (index != np.rint(index))):
            raise ValueError(f"cell indices must be integers in [0, {self.d})")
        if np.any((counts <= 0) | (counts != np.rint(counts))):
            raise ValueError("cell counts must be positive integers")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "index", index.astype(np.int64).reshape(len(keys), self.p))
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def ordered_cells(self) -> list[Cell]:
        return list(self._keys)


@dataclass(frozen=True)
class MixturePriors:
    """Dirichlet hyperparameters: alpha for nu, a for every lambda."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.a <= 0.0:
            raise ValueError("prior concentrations must be positive")


@dataclass
class MixtureState:
    nu: np.ndarray  # (K,)
    lam: np.ndarray  # (p, K, d), simplex over the last axis
    Z: dict[Cell, np.ndarray]  # per-cell class counts, sum to n(c)


def _class_probs(state: MixtureState, index: np.ndarray) -> np.ndarray:
    """Class-membership probabilities of the cells in ``index`` (cells x p),
    one row per cell, computed in log space with a max shift per row before
    normalizing."""
    with np.errstate(divide="ignore"):
        log_nu = np.log(state.nu)
        log_lam = np.log(state.lam)
    logw = np.repeat(log_nu[None, :], len(index), axis=0)
    for j in range(index.shape[1]):
        logw += log_lam[j][:, index[:, j]].T
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def latent_class_probs(state: MixtureState, cell: Cell) -> np.ndarray:
    """Class-membership probabilities for one cell."""
    return _class_probs(state, np.array([cell], dtype=np.int64))[0]


def init_state(rng: SeededRng, data: ContingencyData, priors: MixturePriors) -> MixtureState:
    """Prior draw of (nu, lambda) plus a deterministic Z filling."""
    K, p, d = data.K, data.p, data.d
    nu = sample_dirichlet(rng, np.full(K, priors.alpha))
    lam = sample_dirichlet(rng, np.full((p, K, d), priors.a))
    Z = np.zeros((data.n_cells, K), dtype=np.int64)
    Z[:, 0] = data.counts
    return MixtureState(nu, lam, dict(zip(data._keys, Z)))


def _conjugate_updates(
    rng: SeededRng, data: ContingencyData, priors: MixturePriors, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda and nu given the allocations Z (cells x K) of ``data``."""
    # margins[j, h, c] sums Z[:, h] over the cells with c_j = c; the sums
    # are of integers, so exact in any order
    margins = np.array([
        [np.bincount(data.index[:, j], Z[:, h], minlength=data.d) for h in range(data.K)]
        for j in range(data.p)
    ])
    lam = sample_dirichlet(rng, priors.a + margins)
    nu = sample_dirichlet(rng, priors.alpha + Z.sum(axis=0))
    return nu, lam


def _sweep(
    rng: SeededRng,
    state: MixtureState,
    data: ContingencyData,
    priors: MixturePriors,
    n_min: float,
) -> MixtureState:
    Z = _allocate(rng, data.counts, _class_probs(state, data.index), n_min)
    nu, lam = _conjugate_updates(rng, data, priors, Z)
    return MixtureState(nu, lam, dict(zip(data._keys, Z)))


def gibbs_step_exact(
    rng: SeededRng, state: MixtureState, data: ContingencyData, priors: MixturePriors
) -> MixtureState:
    """One full sweep of the three conditionals: Z, then lambda, then nu."""
    return _sweep(rng, state, data, priors, math.inf)


def gibbs_step_approx(
    rng: SeededRng,
    state: MixtureState,
    data: ContingencyData,
    priors: MixturePriors,
    n_min: float,
) -> MixtureState:
    """Like the exact sweep, with rounded-Gaussian allocation draws."""
    if n_min < 0.0:
        raise ValueError("n_min must be >= 0")
    return _sweep(rng, state, data, priors, n_min)


def approx_multinomial_draw(
    rng: SeededRng, n_c: int, nu_tilde: np.ndarray, n_min: float
) -> np.ndarray:
    """Thresholded Gaussian-multinomial allocation draw.

    Classes with expected count above ``n_min`` get a rounded Gaussian with
    the multinomial's moments; the rest get an exact multinomial on the
    leftover count.  Negative rounded entries are clamped to zero and the
    sum constraint is restored by trimming the largest entries, so the
    output always sums to ``n_c`` with nonnegative entries.
    """
    if n_min < 0.0:
        raise ValueError("n_min must be >= 0")
    nu_tilde = np.asarray(nu_tilde, dtype=np.float64)
    return _allocate(rng, np.array([n_c], dtype=np.int64), nu_tilde[None, :], n_min)[0]


def _allocate(
    rng: SeededRng, counts: np.ndarray, probs: np.ndarray, n_min: float
) -> np.ndarray:
    """Allocation draws (cells x K) for cells with counts n(c) and class
    probabilities nu~(c), in cell order.  A cell with a class whose
    expected count exceeds ``n_min`` takes the thresholded Gaussian draw;
    the runs of cells between them take exact multinomials."""
    gen = rng._gen

    def exact(run: slice) -> None:
        # a 2-D call costs about as much as five 1-D calls, whatever its
        # length; both draw the rows in order with the same variates
        if run.stop - run.start > 4:
            Z[run] = gen.multinomial(counts[run], probs[run])
        else:
            for i in range(run.start, run.stop):
                Z[i] = gen.multinomial(counts[i], probs[i])

    H = counts[:, None] * probs > n_min
    gauss = np.flatnonzero(H.any(axis=1))
    Z = np.empty(probs.shape, dtype=np.int64)
    start = 0
    for i, (mean, root) in zip(gauss, _gaussian_factors(counts[gauss], probs[gauss], H[gauss])):
        exact(slice(start, i))
        Z[i] = _gaussian_draw(gen, int(counts[i]), probs[i], H[i], mean, root)
        start = i + 1
    exact(slice(start, len(counts)))
    return Z


def _gaussian_factors(
    counts: np.ndarray, probs: np.ndarray, H: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean n nu_H and a root of the covariance n (diag nu_H - nu_H nu_H')
    of each cell's Gaussian classes H: the Cholesky factor, found for all
    cells with the same |H| in one call, or where it fails (the covariance
    is singular when H holds every class) the symmetric root from eigh."""
    factors: list = [None] * len(counts)
    sizes = H.sum(axis=1)
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        n = counts[rows, None]
        nu_h = probs[rows][H[rows]].reshape(len(rows), m)
        cov = n[:, :, None] * (nu_h[:, :, None] * np.eye(m) - nu_h[:, :, None] * nu_h[:, None, :])
        try:
            roots = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            roots = [_root(c) for c in cov]
        for k, r in enumerate(rows):
            factors[r] = (n[k] * nu_h[k], roots[k])
    return factors


def _root(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _gaussian_draw(
    gen: np.random.Generator,
    n_c: int,
    nu_tilde: np.ndarray,
    in_H: np.ndarray,
    mean: np.ndarray,
    root: np.ndarray,
) -> np.ndarray:
    """Rounded N(mean, root root') on the classes H (``in_H``), exact
    multinomial on the leftover count over the complement."""
    w = mean + root @ gen.standard_normal(size=len(mean))
    z_h = np.rint(w).astype(np.int64)
    np.maximum(z_h, 0, out=z_h)
    # trim any excess over n_c from the largest entries
    excess = int(z_h.sum()) - n_c
    while excess > 0:
        i = int(np.argmax(z_h))
        take = min(excess, int(z_h[i]))
        z_h[i] -= take
        excess -= take

    z = np.zeros(len(nu_tilde), dtype=np.int64)
    z[in_H] = z_h
    remainder = n_c - int(z_h.sum())
    if remainder > 0:
        comp = np.flatnonzero(~in_H)
        if len(comp) > 0:
            mass = nu_tilde[comp].sum()
            if mass > 0.0:
                z[comp] = gen.multinomial(remainder, nu_tilde[comp] / mass)
            else:
                z[comp[0]] += remainder
        else:
            # every class was Gaussian and the rounded sum fell short:
            # assign the deficit to the most probable class
            z[int(np.argmax(nu_tilde))] += remainder
    return z


# ---------------------------------------------------------------------------
# exact TV between the multinomial and its rounded-Gaussian surrogate
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _multinomial_pmf(x: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Multinomial(n, p) pmf at the rows of x.  As in scipy.stats, the last
    probability is replaced by one minus the others only when p misses the
    simplex by more than 10 eps."""
    p = np.array(p, dtype=np.float64)
    if abs(1.0 - p.sum()) > 10 * np.finfo(np.float64).eps:
        p[-1] = 1.0 - p[:-1].sum()
    return np.exp(gammaln(n + 1) + np.sum(xlogy(x, p) - gammaln(x + 1), axis=-1))


def _cell_prob_1d(mean: float, sd: float, z: np.ndarray) -> np.ndarray:
    """P(W in [z - 1/2, z + 1/2]) for scalar Gaussian W."""
    return ndtr((z + 0.5 - mean) / sd) - ndtr((z - 0.5 - mean) / sd)


def _cell_prob_2d(mean: np.ndarray, cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Probability of the unit square around each integer pair in z
    under a bivariate Gaussian, by Gauss-Legendre quadrature of the
    conditional decomposition along the first coordinate."""
    s1 = math.sqrt(cov[0, 0])
    beta = cov[0, 1] / cov[0, 0]
    s2_cond = math.sqrt(max(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0], 1e-300))
    # nodes mapped into [z1 - 1/2, z1 + 1/2]
    w1 = z[:, 0, None] + 0.5 * _GL_NODES[None, :]
    dens = _norm_pdf((w1 - mean[0]) / s1) / s1
    cmean = mean[1] + beta * (w1 - mean[0])
    upper = (z[:, 1, None] + 0.5 - cmean) / s2_cond
    lower = (z[:, 1, None] - 0.5 - cmean) / s2_cond
    inner = ndtr(upper) - ndtr(lower)
    return 0.5 * (_GL_WEIGHTS[None, :] * dens * inner).sum(axis=1)


def tv_multinomial_vs_rounded_gaussian(n: int, probs) -> float:
    """Exact TV between Multinomial(n, probs) and the law obtained by
    rounding a moment-matched Gaussian on the first K-1 coordinates (the
    last coordinate is defined by the sum constraint).

    Enumeration-based; limited to K <= 3 and n <= 200.
    """
    probs = np.asarray(probs, dtype=np.float64)
    K = len(probs)
    if K > 3 or n > 200:
        raise ValueError("enumeration limited to K <= 3 and n <= 200")
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probs must lie strictly inside the simplex")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must sum to 1")

    head = probs[:-1]
    mean = n * head
    cov = n * (np.diag(head) - np.outer(head, head))

    # enumerate every integer point carrying non-negligible Gaussian or
    # multinomial mass on the first K-1 coordinates
    sds = np.sqrt(np.diag(cov))
    los = np.floor(np.minimum(0.0, mean - 12.0 * sds)).astype(int)
    his = np.ceil(np.maximum(n * 1.0, mean + 12.0 * sds)).astype(int)

    if K == 2:
        z1 = np.arange(los[0], his[0] + 1)
        grid = z1[:, None]
        gauss = _cell_prob_1d(mean[0], sds[0], z1.astype(float))
    else:
        a1 = np.arange(los[0], his[0] + 1)
        a2 = np.arange(los[1], his[1] + 1)
        g1, g2 = np.meshgrid(a1, a2, indexing="ij")
        grid = np.column_stack([g1.ravel(), g2.ravel()])
        gauss = _cell_prob_2d(mean, cov, grid.astype(float))

    last = n - grid.sum(axis=1)
    valid = (grid >= 0).all(axis=1) & (last >= 0)
    mult = np.zeros(len(grid))
    if valid.any():
        counts = np.column_stack([grid[valid], last[valid]])
        mult[valid] = _multinomial_pmf(counts, n, probs)

    # mass the Gaussian puts outside the enumerated region
    leak = max(0.0, 1.0 - float(gauss.sum()))
    return 0.5 * (float(np.abs(mult - gauss).sum()) + leak)


def gaussnmin_threshold(
    nu_tilde, H, epsilon: float, n_cells: int, C_const: float = 1.0
) -> float:
    """Advisory per-cell sample-size requirement for the Gaussian
    substitution to cost at most ``epsilon`` TV overall.

    Uses P_h = nu~_h times the number of strictly-larger-probability
    classes, and the leftover class mass as the reference nu~_K.  The
    leading constant (which depends on the number of Gaussian classes but
    is not pinned down by the analysis) is supplied by the caller as
    ``C_const``; the result is advisory, not a guarantee.
    """
    nu_tilde = np.asarray(nu_tilde, dtype=np.float64)
    H = np.asarray(H, dtype=int)
    if np.any((nu_tilde <= 0.0) | (nu_tilde >= 1.0)):
        raise ValueError("nu_tilde entries must lie strictly in (0, 1)")
    if epsilon <= 0.0 or n_cells < 1 or C_const <= 0.0:
        raise ValueError("need epsilon > 0, n_cells >= 1, C_const > 0")
    nu_h = nu_tilde[H]
    nu_K = 1.0 - nu_h.sum()
    if nu_K <= 0.0:
        nu_K = float(nu_tilde.min())
    k_h = len(H)
    total = 0.0
    for h in range(k_h):
        v = nu_h[h]
        P_h = v * float(np.sum(nu_h > v))
        total += (
            (1.0 - v)
            * (1.0 - 2.0 * v + 2.0 * v * v)
            * (1.0 + P_h / nu_K)
            / math.sqrt(v * (1.0 - v))
        )
    return C_const / (n_cells * epsilon**2) * total**2


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def cell_probability(nu: np.ndarray, lam: np.ndarray, cell: Cell) -> float:
    """pi(c) = sum_h nu_h prod_j lambda^(j)_{h, c_j}."""
    w = nu.copy()
    for j, cj in enumerate(cell):
        w = w * lam[j, :, cj]
    return float(w.sum())


def simulate_contingency(
    rng: SeededRng,
    p: int,
    d: int,
    K: int,
    N: int,
    priors: MixturePriors = MixturePriors(),
    query_cells: list[Cell] | None = None,
) -> tuple[ContingencyData, np.ndarray, np.ndarray, dict[Cell, float]]:
    """Ancestral draw of N observations from a prior draw of the model.

    Returns (data, true_nu, true_lam, true_pi) where true_pi maps each
    queried cell (default: every occupied cell) to its exact probability.
    The table is kept sparse throughout; dense d**p storage is never
    allocated.
    """
    if p * math.log(d) > 64 * math.log(2):
        raise ValueError("cell index space too large to enumerate safely")
    nu = sample_dirichlet(rng, np.full(K, priors.alpha))
    lam = sample_dirichlet(rng, np.full((p, K, d), priors.a))

    cells: dict[Cell, int] = {}
    if N > 0:
        gen = rng._gen
        z = gen.choice(K, size=N, p=nu)
        obs = np.empty((N, p), dtype=np.int64)
        for j in range(p):
            for h in range(K):
                mask = z == h
                m = int(mask.sum())
                if m:
                    obs[mask, j] = gen.choice(d, size=m, p=lam[j, h])
        for row in obs:
            c = tuple(int(v) for v in row)
            cells[c] = cells.get(c, 0) + 1

    data = ContingencyData(cells, p=p, d=d, K=K)
    if query_cells is None:
        query_cells = data.ordered_cells()
    true_pi = {c: cell_probability(nu, lam, c) for c in query_cells}
    return data, nu, lam, true_pi
