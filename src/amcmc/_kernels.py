"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel has two implementations: a numba ``@njit`` version and a pure
numpy/python fallback.  The active path is chosen at import time; set the
environment variable ``AMCMC_DISABLE_NUMBA=1`` to force the fallback (or it
is selected automatically when numba is not importable).

All randomness is drawn *outside* these kernels and passed in as arrays, so
the choice of path never changes which variates a seeded run consumes.
``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("AMCMC_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
    }


# ---------------------------------------------------------------------------
# pure-numpy implementations (always importable, used as the fallback path)
# ---------------------------------------------------------------------------


def gauss_kernel_sum_numpy(xs: np.ndarray, ys: np.ndarray, phi: float) -> float:
    """sum_ij exp(-phi * ||x_i - y_j||^2) over all pairs."""
    x2 = np.einsum("ij,ij->i", xs, xs)
    y2 = np.einsum("ij,ij->i", ys, ys)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (xs @ ys.T)
    np.maximum(d2, 0.0, out=d2)
    return float(np.exp(-phi * d2).sum())


def finite_chain_path_numpy(
    row_cdf: np.ndarray, start: int, uniforms: np.ndarray
) -> np.ndarray:
    """Simulate a finite-state chain from pre-drawn uniforms.

    row_cdf is the (K, K) matrix of row-wise cumulative transition
    probabilities; the path has len(uniforms) + 1 states starting at
    ``start``.
    """
    t = uniforms.shape[0]
    path = np.empty(t + 1, dtype=np.int64)
    path[0] = start
    state = start
    for i in range(t):
        state = int(np.searchsorted(row_cdf[state], uniforms[i], side="right"))
        path[i + 1] = state
    return path


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

HAS_NUMBA = False
if not _numba_disabled():
    try:
        from numba import njit, prange

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True, parallel=False)
    def gauss_kernel_sum_numba(xs, ys, phi):  # pragma: no cover - compiled
        m, q = xs.shape
        n = ys.shape[0]
        total = 0.0
        for i in range(m):
            for j in range(n):
                d2 = 0.0
                for l in range(q):
                    diff = xs[i, l] - ys[j, l]
                    d2 += diff * diff
                total += np.exp(-phi * d2)
        return total

    @njit(cache=True)
    def finite_chain_path_numba(row_cdf, start, uniforms):  # pragma: no cover
        t = uniforms.shape[0]
        K = row_cdf.shape[1]
        path = np.empty(t + 1, dtype=np.int64)
        path[0] = start
        state = start
        for i in range(t):
            u = uniforms[i]
            nxt = K - 1
            for j in range(K):
                if u < row_cdf[state, j]:
                    nxt = j
                    break
            state = nxt
            path[i + 1] = state
        return path

    gauss_kernel_sum = gauss_kernel_sum_numba
    finite_chain_path = finite_chain_path_numba
else:
    gauss_kernel_sum = gauss_kernel_sum_numpy
    finite_chain_path = finite_chain_path_numpy
