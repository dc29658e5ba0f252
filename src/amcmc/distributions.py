"""Seeded random-variate primitives shared by all samplers.

A :class:`SeededRng` wraps a counter-based numpy ``Philox`` bit generator
keyed on (seed, stream), with stream < 2**16, so per-chain streams are
independent by construction and identical (seed, stream) pairs reproduce
identical variate sequences across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SeededRng",
    "sample_dirichlet",
    "sample_multinomial",
    "sample_mvn",
    "sample_gamma",
    "sample_discrete",
    "sample_polya_gamma",
    "polya_gamma_mean",
]


class SeededRng:
    """Counter-based generator with explicit (seed, stream) identity."""

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        # the stream fills the key's low 16 bits; a wider one would alias
        # a stream of the next seed
        if stream >= 1 << 16:
            raise ValueError(f"stream must be below 2**16, got {stream}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.Philox(key=(self.seed << 16) + self.stream)
        )

    def spawn(self, stream: int) -> "SeededRng":
        """Independent generator sharing this seed on another stream."""
        return SeededRng(self.seed, stream)

    # thin pass-throughs used throughout the samplers
    def uniform(self, size=None):
        return self._gen.uniform(size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sample_dirichlet(rng: SeededRng, concentration) -> np.ndarray:
    """Dirichlet draw via normalized Gamma variates; an array of
    concentrations draws one vector along its last axis per leading index,
    with the variates a loop over the rows in C order would consume."""
    conc = np.asarray(concentration, dtype=np.float64)
    if np.any(conc <= 0.0):
        raise ValueError("Dirichlet concentrations must be positive")
    gen = rng._gen
    if conc.ndim > 1:
        state = gen.bit_generator.state
        g = gen.gamma(conc)
        total = g.sum(axis=-1, keepdims=True)
        if not (total == 0.0).any():
            return g / total
        # a row underflowed: replay the rows one at a time so its fallback
        # draw comes where the loop would take it
        gen.bit_generator.state = state
        rows = [sample_dirichlet(rng, row) for row in conc.reshape(-1, conc.shape[-1])]
        return np.array(rows).reshape(conc.shape)
    g = gen.gamma(conc)
    total = g.sum()
    if total == 0.0:
        # all-tiny concentrations can underflow; fall back to the argmax
        # convention (a draw concentrated on one coordinate)
        out = np.zeros_like(conc)
        out[int(gen.integers(len(conc)))] = 1.0
        return out
    return g / total


def sample_multinomial(rng: SeededRng, n: int, probs) -> np.ndarray:
    """Multinomial counts; numpy draws them by sequential binomial
    decomposition, one binomial per category in order."""
    p = np.asarray(probs, dtype=np.float64)
    if n < 0:
        raise ValueError("n must be >= 0")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a probability vector")
    if p[:-1].sum() > 1.0 + 1e-12:
        # numpy rejects leading probabilities that sum past 1 + 1e-12;
        # within the tolerance above, take the renormalized vector
        p = p / p.sum()
    return rng._gen.multinomial(n, p)


def sample_mvn(rng: SeededRng, mean, covariance) -> np.ndarray:
    """Multivariate normal via a symmetric factor root; eigendecomposition
    handles the semidefinite case."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    if np.abs(cov - cov.T).max() > 1e-8:
        raise ValueError("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    try:
        root = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        if vals.min() < -1e-8:
            raise ValueError(
                f"covariance has negative eigenvalue {vals.min():.3e}"
            )
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return mean + root @ rng.normal(size=len(mean))


def sample_gamma(rng: SeededRng, shape: float, rate: float) -> float:
    """Gamma variate in the shape/rate parameterization."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("shape and rate must be positive")
    return float(rng._gen.gamma(shape) / rate)


def sample_discrete(rng: SeededRng, probs) -> int:
    """Inverse-CDF draw of an index from a probability vector."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0.0) or p.sum() <= 0.0:
        raise ValueError("probs must be nonnegative with positive mass")
    cdf = np.cumsum(p / p.sum())
    return min(int(np.searchsorted(cdf, rng.uniform(), side="right")), len(p) - 1)


def polya_gamma_mean(c: float) -> float:
    """E[PG(1, c)] = tanh(c/2) / (2c), with the limit 1/4 at c = 0."""
    if c == 0.0:
        return 0.25
    return math.tanh(c / 2.0) / (2.0 * c)


#: Devroye's truncation point: the PG proposal is an inverse Gaussian on
#: (0, t] and an exponential on (t, inf).  Polson, Scott & Windle (2013)
#: take t = 0.64, close to the best choice at every tilt.
_PG_T = 0.64


def _pg_coef(n: int, x: np.ndarray) -> np.ndarray:
    """Coefficient a_n(x) of the alternating series for the density of
    J*(1, 0): the small-x form on (0, t], the large-x form above t."""
    k = math.pi * (n + 0.5)
    small = np.exp(math.log(k) - 1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x <= _PG_T, small, k * np.exp(-0.5 * k * k * x))


#: Candidates drawn per pending entry in each round of the inverse Gaussian
#: proposal's own rejection loops.  Their acceptance rates are 0.48 to 1, so
#: with three candidates almost every entry is settled in the first round,
#: and a round costs numpy calls whatever the number of entries.
_PG_CANDIDATES = 3


def _pg_left_proposal(gen: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """IG(1/z, 1) truncated to (0, t], one variate per entry of z.  Each
    round draws ``_PG_CANDIDATES`` i.i.d. candidates per pending entry and
    keeps the first accepted one, which is a draw from the target as in
    sequential rejection."""
    x = np.empty(z.size)

    def settle(todo, cand, ok):
        hit = ok.any(axis=1)
        x[todo[hit]] = cand[hit, ok[hit].argmax(axis=1)]
        return todo[~hit]

    # mean 1/z above t: 1/sqrt(x) is a normal truncated to [1/sqrt(t), inf),
    # drawn by Devroye's exponential tail method, then thinned by
    # exp(-z^2 x / 2) to tilt the Levy law into the inverse Gaussian
    todo = np.flatnonzero(z < 1.0 / _PG_T)
    while todo.size:
        shape = (todo.size, _PG_CANDIDATES)
        e1 = gen.standard_exponential(shape)
        e2 = gen.standard_exponential(shape)
        u = gen.uniform(size=shape)
        cand = _PG_T / (1.0 + _PG_T * e1) ** 2
        ok = (e1 * e1 <= 2.0 * e2 / _PG_T) & (u <= np.exp(-0.5 * z[todo, None] ** 2 * cand))
        todo = settle(todo, cand, ok)
    # mean at most t: the inverse Gaussian itself (Michael, Schucany & Haas
    # 1976), kept when below t
    todo = np.flatnonzero(z >= 1.0 / _PG_T)
    while todo.size:
        shape = (todo.size, _PG_CANDIDATES)
        mu = 1.0 / z[todo, None]
        w = mu * gen.standard_normal(shape) ** 2
        # the smaller root, mu / (1 + w/2 + sqrt(w + w^2/4)), has no cancellation
        cand = mu / (1.0 + 0.5 * w + np.sqrt(w + 0.25 * w * w))
        larger = gen.uniform(size=shape) * (mu + cand) > mu
        cand = np.where(larger, mu * mu / cand, cand)
        todo = settle(todo, cand, cand <= _PG_T)
    return x


def _pg_accept(gen: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Devroye's alternating-series test of proposals x against the
    envelope a_0(x): the partial sums bracket the density, so every
    proposal is decided after finitely many terms."""
    s = _pg_coef(0, x)
    y = gen.uniform(size=x.size) * s
    accepted = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    n = 0
    while live.size:
        n += 1
        if n % 2:
            s = s - _pg_coef(n, x)
            decided = y <= s
            accepted[live[decided]] = True
        else:
            s = s + _pg_coef(n, x)
            decided = y > s
        keep = ~decided
        live, x, y, s = live[keep], x[keep], y[keep], s[keep]
    return accepted


def sample_polya_gamma(rng: SeededRng, c) -> np.ndarray | float:
    """Exact PG(1, c) variates by Devroye's alternating-series rejection
    sampler (Polson, Scott & Windle 2013, section 4).

    PG(1, c) = J*(1, |c|/2) / 4.  A proposal comes from the exponential
    piece on (t, inf) or the truncated inverse Gaussian piece on (0, t],
    chosen in proportion to their envelope masses, and is accepted by the
    alternating-series test; more than 99.9 % of proposals are accepted at
    every tilt.  Accepts a scalar (returns a float) or a vector of tilts.
    All entries are proposed together, and rejected ones are retried in
    index order, so the draws depend only on the generator state and c.
    """
    # imported here so that ``import amcmc`` does not load scipy
    from scipy.special import expit, log_ndtr

    scalar = np.isscalar(c)
    cv = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not np.isfinite(cv).all():
        raise ValueError("Polya-Gamma tilts must be finite")
    z = 0.5 * np.abs(cv)
    rate = 0.125 * math.pi**2 + 0.5 * z * z
    # envelope masses: p = pi / (2 rate) exp(-rate t) right of t, and
    # q = 2 exp(-z) P(IG(1/z, 1) <= t) left of it, with the inverse
    # Gaussian CDF written through log Phi so no term overflows
    rt = math.sqrt(_PG_T)
    log_q_over_p = (
        math.log(4.0 / math.pi)
        + np.log(rate)
        + rate * _PG_T
        + np.logaddexp(log_ndtr((_PG_T * z - 1.0) / rt) - z, log_ndtr(-(_PG_T * z + 1.0) / rt) + z)
    )
    p_right = expit(-log_q_over_p)

    gen = rng._gen
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        right = gen.uniform(size=todo.size) < p_right[todo]
        x = np.empty(todo.size)
        x[right] = _PG_T + gen.standard_exponential(int(right.sum())) / rate[todo[right]]
        x[~right] = _pg_left_proposal(gen, z[todo[~right]])
        ok = _pg_accept(gen, x)
        out[todo[ok]] = 0.25 * x[ok]
        todo = todo[~ok]
    return float(out[0]) if scalar else out
