"""Seeded random-variate primitives shared by all samplers.

A :class:`SeededRng` is a numpy ``Generator`` on a counter-based ``Philox``
bit generator keyed on (seed, stream), with seed < 2**112 and
stream < 2**16, so per-chain streams are independent by construction and
identical (seed, stream) pairs reproduce identical variate sequences across
runs and platforms.  The samplers call its ``Generator`` methods directly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SeededRng",
    "sample_dirichlet",
    "sample_multinomial",
    "sample_mvn",
    "sample_discrete",
    "sample_polya_gamma",
    "polya_gamma_mean",
]


class SeededRng(np.random.Generator):
    """A numpy ``Generator`` on the Philox key (seed << 16) + stream."""

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        # the stream fills the key's low 16 bits; a wider one would alias
        # a stream of the next seed
        if stream >= 1 << 16:
            raise ValueError(f"stream must be below 2**16, got {stream}")
        # Philox keys are below 2**128, which leaves the seed 112 bits
        if seed >= 1 << 112:
            raise ValueError(f"seed must be below 2**112, got {seed}")
        super().__init__(np.random.Philox(key=(int(seed) << 16) + int(stream)))


def sample_dirichlet(rng: SeededRng, *concentrations):
    """Dirichlet draws via normalized Gamma variates: each array of
    concentrations draws one vector along its last axis per leading index.
    The variates are those a loop over the arrays in turn, and over each
    one's rows in C order, would consume; one Gamma call draws them all.
    One array returns its draw, several a tuple of their draws."""
    concs = [np.asarray(c, dtype=np.float64) for c in concentrations]
    flat = np.concatenate([c.ravel() for c in concs])
    if (flat <= 0.0).any():
        raise ValueError("Dirichlet concentrations must be positive")
    state = rng.bit_generator.state
    # standard_gamma is gamma at scale 1 without the multiply by 1: the
    # same variates, drawn in the same order
    g = rng.standard_gamma(flat)
    draws, totals, start = [], [], 0
    for c in concs:
        draws.append(g[start:start + c.size].reshape(c.shape))
        totals.append(draws[-1].sum(axis=-1, keepdims=True))
        start += c.size
    if all(total.all() for total in totals):
        for x, total in zip(draws, totals):
            x /= total
    else:
        # all-tiny concentrations can underflow to a zero total; such a row
        # takes the argmax convention (all mass on one uniformly drawn
        # coordinate).  Replay the rows one at a time so its draw comes
        # where the loop takes it.
        rng.bit_generator.state = state
        for x, c in zip(draws, concs):
            for out, row in zip(x.reshape(-1, c.shape[-1]), c.reshape(-1, c.shape[-1])):
                out[:] = rng.standard_gamma(row)
                total = out.sum()
                if total == 0.0:
                    out[int(rng.integers(len(row)))] = 1.0
                else:
                    out /= total
    return draws[0] if len(draws) == 1 else tuple(draws)


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
    return rng.multinomial(n, p)


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
    return mean + root @ rng.standard_normal(size=len(mean))


def _discrete_cdf(probs) -> np.ndarray:
    """The CDF of a vector of weights, normalized by their sum."""
    p = np.asarray(probs, dtype=np.float64)
    total = p.sum()
    # a NaN fails both tests, and an infinite weight makes the total infinite
    if not (p.size and p.min() >= 0.0 and 0.0 < total < math.inf):
        raise ValueError("probs must be finite and nonnegative, with a positive finite sum")
    return np.cumsum(p / total)


def _cdf_draw(rng: SeededRng, cdf: np.ndarray) -> int:
    """Inverse-CDF draw of an index: one uniform, located in ``cdf``.
    ``random()`` is ``uniform()`` on [0, 1): the same double, drawn faster."""
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


def sample_discrete(rng: SeededRng, probs) -> int:
    """Inverse-CDF draw of an index from a vector of weights, normalized by
    their sum."""
    return _cdf_draw(rng, _discrete_cdf(probs))


def polya_gamma_mean(c: float) -> float:
    """E[PG(1, c)] = tanh(c/2) / (2c), with the limit 1/4 at c = 0."""
    if c == 0.0:
        return 0.25
    return math.tanh(c / 2.0) / (2.0 * c)


#: Devroye's truncation point: the PG proposal is an inverse Gaussian on
#: (0, t] and an exponential on (t, inf).  Polson, Scott & Windle (2013)
#: take t = 0.64, close to the best choice at every tilt.
_PG_T = 0.64


#: Candidates drawn per pending entry in each round of the inverse Gaussian
#: proposal's own rejection loops.  Their acceptance rates are 0.48 to 1, so
#: with three candidates almost every entry is settled in the first round,
#: and a round costs numpy calls whatever the number of entries.
_PG_CANDIDATES = 3


def _pg_left_proposal(gen: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """IG(1/z, 1) truncated to (0, t], one variate per entry of z.  Each
    round draws ``_PG_CANDIDATES`` i.i.d. candidates per pending entry, one
    row each, and keeps the first accepted one, which is a draw from the
    target as in sequential rejection."""
    x = np.empty(z.size)

    def settle(todo, cand, ok):
        hit, first = ok[-1], cand[-1]
        for j in range(_PG_CANDIDATES - 2, -1, -1):
            hit, first = hit | ok[j], np.where(ok[j], cand[j], first)
        x[todo] = first  # an entry left pending is written again in a later round
        return todo[~hit]

    # mean 1/z above t: 1/sqrt(x) is a normal truncated to [1/sqrt(t), inf),
    # proposed by Devroye's exponential tail method, whose test
    # E2 >= t E1^2 / 2 and the thinning by exp(-z^2 x / 2) that tilts the
    # Levy law into the inverse Gaussian are one exponential test, as
    # P(E >= a) P(E' >= b) = P(E >= a + b)
    todo = np.flatnonzero(z < 1.0 / _PG_T)
    while todo.size:
        e1, e2 = gen.standard_exponential((2, _PG_CANDIDATES, todo.size))
        te1 = _PG_T * e1
        cand = _PG_T / (1.0 + te1) ** 2
        todo = settle(todo, cand, 2.0 * e2 >= te1 * e1 + z[todo] ** 2 * cand)
    # mean at most t: the inverse Gaussian itself (Michael, Schucany & Haas
    # 1976), kept when below t
    todo = np.flatnonzero(z >= 1.0 / _PG_T)
    while todo.size:
        shape = (_PG_CANDIDATES, todo.size)
        mu = 1.0 / z[todo]
        w = mu * gen.standard_normal(shape) ** 2
        # the smaller root, mu / (1 + w/2 + sqrt(w + w^2/4)), has no
        # cancellation, and the larger, mu (mu / root), no underflow of mu^2
        # for tilts past 1e162
        cand = mu / (1.0 + 0.5 * w + np.sqrt(w + 0.25 * w * w))
        larger = gen.uniform(size=shape) * (mu + cand) > mu
        cand = np.where(larger, mu * (mu / cand), cand)
        todo = settle(todo, cand, cand <= _PG_T)
    return x


def _pg_accept(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Devroye's alternating-series test u a_0(x) <= f(x) of proposals x
    against the envelope a_0(x), whose partial sums bracket the density of
    J*(1, 0), so every proposal is decided after finitely many terms.

    The test runs on the ratios a_n / a_0 = (2n + 1) exp(-n (n + 1) h / 2),
    with h = 4 / x from the small-x form on (0, t] and h = pi^2 x from the
    large-x form above t.  The first partial sum, u <= 1 - 3 exp(-h),
    decides all but a fraction 3 exp(-h) < 0.6 % of the proposals; only
    those enter the loop over further terms."""
    with np.errstate(over="ignore"):  # x below about 1e-308: h is inf, every a_n / a_0 0
        h = np.where(x <= _PG_T, 4.0 / x, math.pi**2 * x)
    s = 1.0 - 3.0 * np.exp(-h)
    accepted = u <= s
    live = np.flatnonzero(~accepted)
    u, h, s = u[live], h[live], s[live]
    n = 1
    while live.size:
        n += 1
        r = (2 * n + 1) * np.exp(-0.5 * n * (n + 1) * h)
        if n % 2:
            s = s - r
            decided = u <= s
            accepted[live[decided]] = True
        else:
            s = s + r
            decided = u > s
        keep = ~decided
        live, u, h, s = live[keep], u[keep], h[keep], s[keep]
    return accepted


#: The choice between the envelope pieces is read from a table of p_right(z)
#: at z = k / _PG_STEP for z < _PG_ZMAX.  Beyond it p_right < 1e-17, below
#: every nonzero uniform, and the rare entry there takes the scalar form,
#: once per call.
_PG_STEP, _PG_ZMAX = 128, 12
#: Relative margin of each table bracket.  The scalar form below and the
#: log_ndtr form of scipy.special both lose about |log(q/p)| ulp, and differ
#: by at most 1.4e-14 relative on [0, 40]; the narrowest cell, next to
#: z = 0 where p_right is flat, spans 1.4e-5.
_PG_MARGIN = 1e-12


def _log_ndtr(x: float) -> float:
    """log Phi(x): erfc in its accurate range, the asymptotic series
    log(phi(x) / -x) + log(1 - x^-2 + 3 x^-4 - 15 x^-6) below -20."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / math.sqrt(2.0)))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
    r = 1.0 / (x * x)
    return -0.5 * x * x - math.log(-x * math.sqrt(2.0 * math.pi)) + math.log1p(r * (r * (3.0 - 15.0 * r) - 1.0))


def _pg_p_right(z: float) -> float:
    """Probability of the exponential piece at tilt z = |c| / 2: p / (p + q)
    with p = pi / (2 rate) exp(-rate t) right of t and q = 2 exp(-z)
    P(IG(1/z, 1) <= t) left of it, the inverse Gaussian CDF written through
    log Phi so that no term overflows; 0 once rate overflows."""
    rate = 0.125 * math.pi**2 + 0.5 * z * z
    rt = math.sqrt(_PG_T)
    a = _log_ndtr((_PG_T * z - 1.0) / rt) - z
    b = _log_ndtr(-(_PG_T * z + 1.0) / rt) + z
    log_q_over_p = (
        math.log(4.0 / math.pi) + math.log(rate) + rate * _PG_T
        + max(a, b) + math.log1p(math.exp(-abs(a - b)))
    )
    if log_q_over_p > 0.0:
        e = math.exp(-log_q_over_p)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(log_q_over_p))


@functools.cache
def _pg_table() -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per table cell [k, k + 1] / _PG_STEP: p_right decreases in
    z, so every z of cell k has p_right in [lo[k], hi[k]], the cell's end
    values widened by _PG_MARGIN."""
    p = np.array([_pg_p_right(k / _PG_STEP) for k in range(_PG_ZMAX * _PG_STEP + 1)])
    return p[1:] * (1.0 - _PG_MARGIN), p[:-1] * (1.0 + _PG_MARGIN)


def _pg_bracket(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per entry of z with lo <= p_right(z) <= hi: its table cell's
    bracket, and the exact scalar p_right twice beyond the table."""
    lo, hi = _pg_table()
    # _PG_STEP is a power of two, so z * _PG_STEP < lo.size exactly where
    # z < _PG_ZMAX, and the product cannot overflow
    inside = z < _PG_ZMAX
    k = (np.where(inside, z, 0.0) * _PG_STEP).astype(np.intp)
    lo, hi = lo[k], hi[k]
    beyond = np.flatnonzero(~inside)
    if beyond.size:
        lo[beyond] = hi[beyond] = [_pg_p_right(v) for v in z[beyond].tolist()]
    return lo, hi


def _pg_right(u: np.ndarray, z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """u < p_right(z), entry by entry, given the bracket ``_pg_bracket(z)``:
    decided by the bracket where u falls outside it, by the exact scalar
    p_right inside it."""
    right = u < lo
    for i in np.flatnonzero(~right & (u < hi)).tolist():
        right[i] = u[i] < _pg_p_right(float(z[i]))
    return right


def sample_polya_gamma(rng: SeededRng, c) -> np.ndarray | float:
    """Exact PG(1, c) variates by Devroye's alternating-series rejection
    sampler (Polson, Scott & Windle 2013, section 4).

    PG(1, c) = J*(1, |c|/2) / 4.  A proposal comes from the exponential
    piece on (t, inf) or the truncated inverse Gaussian piece on (0, t],
    chosen in proportion to their envelope masses (``_pg_right``), and is
    accepted by the alternating-series test; more than 99.9 % of proposals
    are accepted at every tilt.  Accepts a scalar (returns a float) or a
    vector of tilts.  All entries are proposed together, and rejected ones
    are retried in index order, so the draws depend only on the generator
    state and c.
    """
    scalar = np.isscalar(c)
    cv = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not np.isfinite(cv).all():
        raise ValueError("Polya-Gamma tilts must be finite")
    z = 0.5 * np.abs(cv)

    lo, hi = _pg_bracket(z)
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        # one uniform chooses the piece, the other runs the series test
        u_piece, u_test = rng.uniform(size=(2, todo.size))
        zt = z[todo]
        right = _pg_right(u_piece, zt, lo[todo], hi[todo])
        left = ~right
        x = np.empty(todo.size)
        # the exponential rate pi^2 / 8 + z^2 / 2 is finite wherever p_right
        # is positive, so a chosen right piece never overflows it
        zr = zt[right]
        x[right] = _PG_T + rng.standard_exponential(zr.size) / (0.125 * math.pi**2 + 0.5 * zr * zr)
        x[left] = _pg_left_proposal(rng, zt[left])
        out[todo] = 0.25 * x  # a rejected entry is written again when it is accepted
        todo = todo[~_pg_accept(u_test, x)]
    return float(out[0]) if scalar else out
