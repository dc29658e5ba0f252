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
(cells x K) array, the allocations in one pass (one normal call for the
Gaussian classes of every cell, then one multinomial call for every cell;
see ``_allocate``), and one Gamma call for every lambda row and nu.  The exact
sweep consumes the variates of a loop over the cells in sorted order.  The
Gaussian draw still costs more than it saves: numpy's binomial sampler
costs O(1) per class whatever n(c), so the multinomial call costs about
the same with or without the Gaussian classes, and the Gaussian block adds
a fixed set of array operations per sweep.  Measured on one core, the
approximate sweep runs at 0.3 to 0.8 of the exact sweep's rate for
K = 3, 10 and 30 (README).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

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


def _theta_slots(index: np.ndarray, K: int, d: int) -> np.ndarray:
    """(p + 1, K, cells) positions in theta = (nu, lambda.ravel()) of the
    parameters a cell's class multiplies: slot [0, h, i] holds nu_h and
    slot [1 + j, h, i] lambda^(j)_{h, c_j} of cell i."""
    p = index.shape[1]
    h = np.arange(K)[:, None]
    nu = np.broadcast_to(h, (1, K, len(index)))
    lam = K + (np.arange(p)[:, None, None] * K + h) * d + index.T[:, None, :]
    return np.concatenate((nu, lam))


@dataclass(frozen=True)
class ContingencyData:
    """Sparse contingency table: only occupied cells are stored.

    ``index`` (cells x p) and ``counts`` hold the occupied cells in sorted
    order as arrays.  The sweeps work on them, on ``_rows``, the row of each
    cell in them, and on ``_slots``, the cells' ``_theta_slots``."""

    cells: dict[Cell, int]
    p: int
    d: int
    K: int
    index: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: dict[Cell, int] = field(init=False, repr=False, compare=False)
    _slots: np.ndarray = field(init=False, repr=False, compare=False)

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
        index = index.astype(np.int64).reshape(len(keys), self.p)
        self._set(index, counts.astype(np.int64), keys)

    def _set(self, index: np.ndarray, counts: np.ndarray, keys: list[Cell]) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_rows", dict(zip(keys, range(len(keys)))))
        object.__setattr__(self, "_slots", _theta_slots(index, self.K, self.d))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def ordered_cells(self) -> list[Cell]:
        return list(self._rows)

    def prefix(self, total: int) -> "ContingencyData":
        """The table of the first cells in sorted order that hold ``total``
        counts, the last of them trimmed to fit; the whole table if
        ``total`` is not below its own.  A slice of ``index`` and
        ``counts``: nothing is sorted or validated again."""
        cum = np.cumsum(self.counts)
        m = min(int(np.searchsorted(cum, total)) + 1, self.n_cells) if total > 0 else 0
        counts = self.counts[:m].copy()
        if m:
            counts[-1] = min(counts[-1], total - (cum[m - 2] if m > 1 else 0))
        keys = list(islice(self._rows, m))
        sub = object.__new__(ContingencyData)
        for name in ("p", "d", "K"):
            object.__setattr__(sub, name, getattr(self, name))
        object.__setattr__(sub, "cells", dict(zip(keys, counts.tolist())))
        sub._set(self.index[:m], counts, keys)
        return sub


@dataclass(frozen=True)
class MixturePriors:
    """Dirichlet hyperparameters: alpha for nu, a for every lambda."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.a <= 0.0:
            raise ValueError("prior concentrations must be positive")


class _Allocations(Mapping):
    """Read-only view of one sweep's allocations (cells x K) as a mapping
    from each cell of its table to its row, in sorted cell order."""

    __slots__ = ("_rows", "_Z")

    def __init__(self, rows: dict[Cell, int], Z: np.ndarray):
        self._rows, self._Z = rows, Z

    def __getitem__(self, cell: Cell) -> np.ndarray:
        return self._Z[self._rows[cell]]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class MixtureState:
    nu: np.ndarray  # (K,)
    lam: np.ndarray  # (p, K, d), simplex over the last axis
    Z: Mapping[Cell, np.ndarray]  # per-cell class counts, sum to n(c)


def _class_probs(state: MixtureState, slots: np.ndarray) -> np.ndarray:
    """Class-membership probabilities (cells x K) of the cells whose
    ``_theta_slots`` are ``slots``, computed in log space with a max shift
    per cell before normalizing.  The log terms add up as (K x cells), so
    the max over the classes is one pass down the rows; the normalizing sum
    runs along each cell's row of K, so it rounds as for a single cell."""
    with np.errstate(divide="ignore"):
        log_theta = np.log(np.concatenate((state.nu, state.lam.ravel())))
    terms = log_theta.take(slots)
    logw = terms[0]
    for term in terms[1:]:
        logw += term
    top = logw.max(axis=0)
    if (top == -math.inf).any():
        # lambda entries are 0 only where a tiny Dirichlet concentration
        # underflowed, so a cell that every class misses points at prior_a
        raise ValueError(
            "every class gives a cell probability 0: the Dirichlet draws of "
            "lambda underflowed to 0, so the prior concentration prior_a is too small"
        )
    logw -= top
    w = np.exp(logw.T, order="C")
    w /= w.sum(axis=1, keepdims=True)
    return w


def latent_class_probs(state: MixtureState, cell: Cell) -> np.ndarray:
    """Class-membership probabilities for one cell."""
    p, K, d = state.lam.shape
    if len(cell) != p or not all(0 <= c < d for c in cell):
        raise ValueError(f"cell {cell} needs p = {p} entries in [0, {d})")
    return _class_probs(state, _theta_slots(np.array([cell], dtype=np.int64), K, d))[0]


def init_state(rng: SeededRng, data: ContingencyData, priors: MixturePriors) -> MixtureState:
    """Prior draw of (nu, lambda) plus a deterministic Z filling."""
    K, p, d = data.K, data.p, data.d
    nu, lam = sample_dirichlet(rng, np.full(K, priors.alpha), np.full((p, K, d), priors.a))
    Z = np.zeros((data.n_cells, K), dtype=np.int64)
    Z[:, 0] = data.counts
    return MixtureState(nu, lam, _Allocations(data._rows, Z))


def _conjugate_updates(
    rng: SeededRng, data: ContingencyData, priors: MixturePriors, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda and nu given the allocations Z (cells x K) of ``data``."""
    # the allocation counts of theta = (nu, lambda): the class totals, then
    # margins[j, h, c], the sum of Z[:, h] over the cells with c_j = c.  Sums
    # of integers, so exact in any order
    K, p, d = data.K, data.p, data.d
    z = Z.T.ravel()
    counts = np.bincount(data._slots.ravel(), np.concatenate((z,) * (p + 1)), minlength=K * (1 + p * d))
    lam, nu = sample_dirichlet(rng, priors.a + counts[K:].reshape(p, K, d), priors.alpha + counts[:K])
    return nu, lam


def _sweep(
    rng: SeededRng,
    state: MixtureState,
    data: ContingencyData,
    priors: MixturePriors,
    n_min: float,
) -> MixtureState:
    Z = _allocate(rng, data.counts, _class_probs(state, data._slots), n_min)
    nu, lam = _conjugate_updates(rng, data, priors, Z)
    return MixtureState(nu, lam, _Allocations(data._rows, Z))


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
    probabilities nu~(c), in one pass over the table.

    A cell with classes H = {h : n(c) nu~_h > n_min} is Gaussian: H takes a
    rounded N(n nu_H, n (diag nu_H - nu_H nu_H')), clamped at zero and
    trimmed from its largest entries to at most n(c), and the remainder an
    exact multinomial over the other classes.  The variates come in two
    blocks: one standard normal per (Gaussian cell, class in H), cell by
    cell, then one multinomial per cell in cell order, of n(c) over nu~
    for an exact cell and of the remainder for a Gaussian one.  With no
    Gaussian cell that is a single multinomial call, as in the exact sweep.
    """
    # no class is Gaussian at an infinite n_min: nothing to test
    rows = np.flatnonzero((counts[:, None] * probs > n_min).any(axis=1)) if n_min < math.inf else ()
    if not len(rows):
        return rng.multinomial(counts, probs)
    n, nu = counts[rows], probs[rows]
    h = n[:, None] * nu > n_min
    # N(n nu_H, n (diag nu_H - nu_H nu_H')) as n nu_H + sqrt(n) R z, with
    # R = diag(r) - c nu_H r', r = sqrt(nu_H), c = 1 / (1 + sqrt(1 - t)) and
    # t = sum nu_H: R R' = diag nu_H - nu_H nu_H' for every t <= 1, the
    # singular t = 1 of H = every class included.  Classes outside H have
    # nu_H = 0 and z = 0.
    nu_h = np.where(h, nu, 0.0)
    rz = np.zeros(h.shape)
    rz[h] = rng.standard_normal(np.count_nonzero(h))
    rz *= np.sqrt(nu_h)
    c = 1.0 / (1.0 + np.sqrt(np.maximum(1.0 - nu_h.sum(axis=1, keepdims=True), 0.0)))
    w = n[:, None] * nu_h + np.sqrt(n)[:, None] * (rz - c * nu_h * rz.sum(axis=1, keepdims=True))
    Zg = np.maximum(np.rint(w), 0.0).astype(np.int64)
    rest = n - Zg.sum(axis=1)
    while (over := np.flatnonzero(rest < 0)).size:
        # trim the excess over n(c) from the largest entries
        j = Zg[over].argmax(axis=1)
        take = np.minimum(-rest[over], Zg[over, j])
        Zg[over, j] -= take
        rest[over] += take
    q = nu - nu_h
    mass = q.sum(axis=1, keepdims=True)
    none = np.flatnonzero(mass[:, 0] == 0.0)
    if none.size:
        # no mass outside H: the remainder goes to the first class outside
        # H, or, when H holds every class, to the most probable class
        to = np.where(h[none].all(axis=1), nu[none].argmax(axis=1), (~h[none]).argmax(axis=1))
        Zg[none, to] += rest[none]
        rest[none] = 0
        mass[none] = 1.0
    # H first, at probability zero: numpy gives a row's leftover to its last
    # column, which is then the last class outside H, as in a draw over the
    # complement alone
    order = np.argsort(~h, axis=1, kind="stable")
    cell = np.arange(len(rows))[:, None]
    n_all, p_all = counts.copy(), probs.copy()
    n_all[rows] = rest
    p_all[rows] = (q / mass)[cell, order]
    Z = rng.multinomial(n_all, p_all)
    Zg[cell, order] += Z[rows]
    Z[rows] = Zg
    return Z


# ---------------------------------------------------------------------------
# exact TV between the multinomial and its rounded-Gaussian surrogate
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _multinomial_pmf(x: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Multinomial(n, p) pmf at the rows of x, integer counts in [0, n].  As
    in scipy.stats, the last probability is replaced by one minus the
    others only when p misses the simplex by more than 10 eps."""
    p = np.array(p, dtype=np.float64)
    if abs(1.0 - p.sum()) > 10 * np.finfo(np.float64).eps:
        p[-1] = 1.0 - p[:-1].sum()
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        # x log p, 0 where x = 0 whatever p is
        x_log_p = np.where(x > 0, x * np.log(p), 0.0)
    return np.exp(log_fact[n] + np.sum(x_log_p - log_fact[x], axis=-1))


def _ndtr_scalar(x: float) -> float:
    """Phi(x) as scipy.special.ndtr forms it: erf near 0, erfc in the tails."""
    y = x * math.sqrt(0.5)
    if abs(y) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(y)
    tail = 0.5 * math.erfc(abs(y))
    return 1.0 - tail if y > 0.0 else tail


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, entry by entry."""
    return np.frompyfunc(_ndtr_scalar, 1, 1)(x).astype(np.float64)


def _edge_cdf(z: np.ndarray, mean, sd) -> np.ndarray:
    """Phi((e - mean) / sd) at the len(z) + 1 cell edges e = z - 1/2 and
    z[-1] + 1/2 of consecutive integers z, along the last axis; a cell's
    probability is the difference of its two edges'."""
    edges = np.append(z - 0.5, z[-1] + 0.5)
    return _ndtr((edges - mean) / sd)


def _cell_prob_1d(mean: float, sd: float, z: np.ndarray) -> np.ndarray:
    """P(W in [z - 1/2, z + 1/2]) for scalar Gaussian W and consecutive
    integers z."""
    return np.diff(_edge_cdf(z, mean, sd))


def _cell_prob_2d(mean: np.ndarray, cov: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Probability of the unit square around each integer pair of the grid
    a1 x a2 (consecutive integers each; rows in C order) under a bivariate
    Gaussian, by Gauss-Legendre quadrature of the conditional decomposition
    along the first coordinate."""
    s1 = math.sqrt(cov[0, 0])
    beta = cov[0, 1] / cov[0, 0]
    s2_cond = math.sqrt(max(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0], 1e-300))
    # nodes mapped into [z1 - 1/2, z1 + 1/2]
    w1 = a1[:, None] + 0.5 * _GL_NODES[None, :]
    dens = _norm_pdf((w1 - mean[0]) / s1) / s1
    cmean = mean[1] + beta * (w1 - mean[0])
    inner = np.diff(_edge_cdf(a2, cmean[:, :, None], s2_cond), axis=2)
    return 0.5 * (_GL_WEIGHTS[None, :, None] * dens[:, :, None] * inner).sum(axis=1).ravel()


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
        gauss = _cell_prob_2d(mean, cov, a1.astype(float), a2.astype(float))

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


def cell_probability(nu: np.ndarray, lam: np.ndarray, index: np.ndarray) -> np.ndarray:
    """pi(c) = sum_h nu_h prod_j lambda^(j)_{h, c_j} for each row c of
    ``index`` (cells x p), multiplying in the order nu, lambda^(0), ...,
    lambda^(p-1)."""
    p, _, d = lam.shape
    if index.ndim != 2 or index.shape[1] != p or (index.size and not 0 <= index.min() <= index.max() < d):
        raise ValueError(f"index needs rows of p = {p} entries in [0, {d})")
    w = np.full((len(index), len(nu)), nu)
    # term j is lambda^(j)_{h, c_j}, (cells x K)
    for term in lam.transpose(0, 2, 1)[np.arange(index.shape[1])[:, None], index.T]:
        w *= term
    return w.sum(axis=1)


def simulate_contingency(
    rng: SeededRng,
    p: int,
    d: int,
    K: int,
    N: int,
    priors: MixturePriors = MixturePriors(),
) -> tuple[ContingencyData, np.ndarray, np.ndarray, dict[Cell, float]]:
    """Ancestral draw of N observations from a prior draw of the model.

    Returns (data, true_nu, true_lam, true_pi) where true_pi maps each
    occupied cell to its exact probability.  The table is kept sparse
    throughout; dense d**p storage is never allocated.
    """
    if p * math.log(d) > 64 * math.log(2):
        raise ValueError("cell index space too large to enumerate safely")
    nu, lam = sample_dirichlet(rng, np.full(K, priors.alpha), np.full((p, K, d), priors.a))

    cells: dict[Cell, int] = {}
    if N > 0:
        z = rng.choice(K, size=N, p=nu)
        obs = np.empty((N, p), dtype=np.int64)
        for j in range(p):
            for h in range(K):
                mask = z == h
                m = int(mask.sum())
                if m:
                    obs[mask, j] = rng.choice(d, size=m, p=lam[j, h])
        # each row as its mixed-radix key, below d**p <= 2**64 by the guard
        # above; keys sort as their rows do
        radix = np.uint64(d)
        key = np.zeros(N, dtype=np.uint64)
        for column in obs.T.astype(np.uint64):
            key = key * radix + column
        key, counts = np.unique(key, return_counts=True)
        rows = np.empty((len(key), p), dtype=np.int64)
        for j in range(p - 1, -1, -1):
            key, rows[:, j] = np.divmod(key, radix)
        cells = dict(zip(map(tuple, rows.tolist()), counts.tolist()))

    data = ContingencyData(cells, p=p, d=d, K=K)
    true_pi = dict(zip(data.ordered_cells(), cell_probability(nu, lam, data.index).tolist()))
    return data, nu, lam, true_pi
