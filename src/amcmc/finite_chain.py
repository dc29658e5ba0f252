"""Exact computations on small finite-state Markov kernels.

This is the oracle substrate for the closed-form bounds: Cesaro TV
distances and autocovariances by iterated matrix-vector products, each
over a whole grid of path lengths (or lags) in one pass, exact laws of
ergodic averages by dynamic programming, stationary measures, and the
two-state constructions that attain the TV bounds with equality.

Caps: at most 16 states, and the ergodic-average DP runs to t <= 64.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .bounds import _value

__all__ = [
    "FiniteKernel",
    "FiniteMeasure",
    "doeblin_alpha",
    "invariant_measure",
    "cesaro_tv",
    "kernel_tv_sup",
    "ergodic_average_law",
    "exact_autocovariance",
    "simulate_path",
    "two_state_symmetric",
    "two_state_perturbed",
    "two_state_shifted",
    "MAX_STATES",
    "MAX_DP_STEPS",
]

MAX_STATES = 16
MAX_DP_STEPS = 64

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class FiniteKernel:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel must be a square matrix")
        if m.shape[0] > MAX_STATES:
            raise ValueError(f"at most {MAX_STATES} states supported")
        if np.any(m < -_ROW_TOL) or np.any(m > 1.0 + _ROW_TOL):
            raise ValueError("kernel entries must lie in [0, 1]")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > _ROW_TOL):
            raise ValueError("kernel rows must sum to 1")

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FiniteMeasure:
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("measure must be a vector")
        if np.any(w < -_ROW_TOL):
            raise ValueError("measure weights must be nonnegative")
        if abs(w.sum() - 1.0) > _ROW_TOL:
            raise ValueError("measure must sum to 1")


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def doeblin_alpha(P: FiniteKernel) -> float:
    """1 minus the largest pairwise row TV distance."""
    m = P.matrix
    return 1.0 - 0.5 * float(np.abs(m[:, None, :] - m[None, :, :]).sum(axis=2).max())


def invariant_measure(P: FiniteKernel) -> FiniteMeasure:
    """Stationary vector of P: the eigenvector of P' for its one eigenvalue
    within 1e-10 of 1.  For a stochastic P that eigenvalue has condition
    number ||pi||_2 sqrt(K) <= 4 (K <= 16), so ``eig`` finds it; more than
    one means a reducible kernel.  Raises ``ValueError`` unless there is
    exactly one."""
    vals, vecs = np.linalg.eig(P.matrix.T)
    unit = np.flatnonzero(np.abs(vals - 1.0) < 1e-10)
    if len(unit) != 1:
        raise ValueError(
            f"P' has {len(unit)} eigenvalues within 1e-10 of 1, so no unique stationary measure"
            " (a reducible kernel has several)"
        )
    v = np.abs(np.real(vecs[:, unit[0]]))
    return FiniteMeasure(v / v.sum())


def _running_pass(points, low: int, what: str, state, step, record):
    """``record(state, n)`` at each requested n, from one pass that applies
    ``step`` to ``state`` up to the largest n.  ``points`` is an int or an
    array of them, each at least ``low``; a scalar gives a float."""
    points = np.asarray(points)
    if np.any(points < low):
        raise ValueError(f"{what} must be >= {low}")
    stops, where = np.unique(points, return_inverse=True)
    values, done = np.empty(len(stops)), 0
    for i, stop in enumerate(stops.tolist()):
        for _ in range(stop - done):
            state = step(state)
        values[i], done = record(state, stop), stop
    return _value(values[where].reshape(points.shape))


def cesaro_tv(nu: FiniteMeasure, P: FiniteKernel, t):
    """Exact TV between the stationary law and the Cesaro average
    (1/t) sum_{k=0}^{t-1} nu P^k, at an int t or an array of them."""
    pi = invariant_measure(P).weights
    return _running_pass(
        t, 1, "t", (np.zeros_like(nu.weights), nu.weights),  # (sum of nu P^j for j < k, nu P^k)
        lambda s: (s[0] + s[1], s[1] @ P.matrix), lambda s, n: _tv(pi, s[0] / n),
    )


def kernel_tv_sup(P: FiniteKernel, Q: FiniteKernel) -> float:
    """Max over states of the row-wise TV between two kernels."""
    if P.n_states != Q.n_states:
        raise ValueError("kernels must share a state space")
    return max(_tv(p, q) for p, q in zip(P.matrix, Q.matrix))


def ergodic_average_law(
    P: FiniteKernel, f: np.ndarray, nu: FiniteMeasure, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the ergodic average (1/t) sum_{k=0}^{t-1} f(theta_k).

    Dynamic program over (current state, counts of each distinct f value).
    Returns (support, probs) sorted by support value, with probs summing
    to 1 up to accumulated rounding.
    """
    if not (1 <= t <= MAX_DP_STEPS):
        raise ValueError(f"t must lie in 1..{MAX_DP_STEPS} for the exact DP")
    f = np.asarray(f, dtype=np.float64)
    values, idx = np.unique(f, return_inverse=True)
    m = len(values)
    K = P.n_states

    # state of the DP: (chain state, tuple of per-value counts so far)
    cur: dict[tuple[int, tuple[int, ...]], float] = {}
    for s in range(K):
        w = nu.weights[s]
        if w > 0.0:
            counts = [0] * m
            counts[idx[s]] = 1
            cur[(s, tuple(counts))] = cur.get((s, tuple(counts)), 0.0) + w

    for _ in range(t - 1):
        nxt: dict[tuple[int, tuple[int, ...]], float] = {}
        for (s, counts), prob in cur.items():
            row = P.matrix[s]
            for s2 in range(K):
                p = row[s2]
                if p == 0.0:
                    continue
                c2 = list(counts)
                c2[idx[s2]] += 1
                key = (s2, tuple(c2))
                nxt[key] = nxt.get(key, 0.0) + prob * p
        cur = nxt

    law: dict[float, float] = {}
    for (_, counts), prob in cur.items():
        avg = float(np.dot(counts, values)) / t
        law[avg] = law.get(avg, 0.0) + prob
    support = np.array(sorted(law))
    probs = np.array([law[v] for v in support])
    return support, probs


def exact_autocovariance(P: FiniteKernel, f: np.ndarray, k):
    """Stationary lag-k autocovariance of f along the chain, at an int k or
    an array of lags."""
    pi = invariant_measure(P).weights
    f = np.asarray(f, dtype=np.float64)
    mean = float(pi @ f)
    cross = _running_pass(k, 0, "lag", f, lambda pkf: P.matrix @ pkf, lambda pkf, _: pi @ (f * pkf))
    return cross - mean * mean


def simulate_path(rng, P: FiniteKernel, nu: FiniteMeasure, t: int) -> np.ndarray:
    """Length-t state path, theta_0 ~ nu.  Each step takes the first state
    whose cumulative row probability exceeds one uniform draw."""
    if t < 1:
        raise ValueError("t must be >= 1")
    u0 = rng.uniform()
    start = int(np.searchsorted(np.cumsum(nu.weights), u0, side="right"))
    start = min(start, P.n_states - 1)
    uniforms = rng.uniform(size=t - 1)
    row_cdf = np.cumsum(P.matrix, axis=1).tolist()
    path = [start]
    state = start
    for u in uniforms.tolist():
        state = bisect.bisect_right(row_cdf[state], u)
        path.append(state)
    return np.array(path, dtype=np.int64)


# ---------------------------------------------------------------------------
# two-state constructions attaining the bounds
# ---------------------------------------------------------------------------


def two_state_symmetric(a: float) -> FiniteKernel:
    """Symmetric two-state kernel with off-diagonal a; Doeblin alpha = 2a."""
    return FiniteKernel(np.array([[1.0 - a, a], [a, 1.0 - a]]))


def two_state_perturbed(a: float, eps: float) -> FiniteKernel:
    """Perturbation of the symmetric kernel whose stationary law sits at TV
    distance exactly eps / (2a) from the uniform one."""
    return FiniteKernel(
        np.array([[1.0 - (a - eps), a - eps], [a + eps, 1.0 - (a + eps)]])
    )


def two_state_shifted(a: float, eps: float) -> FiniteKernel:
    """Symmetric kernel with both off-diagonals shrunk to a - eps; Doeblin
    constant 2a - 2 eps, stationary law still uniform."""
    return two_state_symmetric(a - eps)
