"""Empirical convergence and approximation diagnostics.

Estimators over a :class:`Trace` (a t x p matrix of draws in chain order):

* ``phi_max`` — an autocorrelation-based lower-bound estimate of the
  chain's geometric convergence rate, with a union-bound multiplicity
  correction at the 0.95 level;
* ``w1_kernel_distance`` — the RKHS norm of the difference of empirical
  kernel mean embeddings of two sample sets (a kernel Wasserstein / MMD
  V-statistic);
* ``geweke_z`` — per-coordinate Geweke z-scores with spectral-density
  variance estimates;
* ``effective_sample_size`` — per-coordinate ESS with initial-positive-
  sequence truncation.

All estimators are deterministic functions of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .config import iter_csv_rows, write_csv

__all__ = [
    "Trace",
    "PhiMaxReport",
    "phi_max",
    "w1_kernel_distance",
    "geweke_z",
    "effective_sample_size",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass(frozen=True)
class Trace:
    """Ordered draws of one chain. Columns are parameter coordinates."""

    samples: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2:
            raise ValueError("trace samples must be a t x p matrix")
        object.__setattr__(self, "samples", s)
        if s.shape[0] < 2:
            raise ValueError("trace needs at least 2 steps")
        if not np.isfinite(s).all():
            raise ValueError("trace contains non-finite entries")

    @property
    def t(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class PhiMaxReport:
    phi_max: float | None
    threshold: float
    # rows (coordinate, lag, autocorrelation) for retained cells only
    retained: list[tuple[int, int, float]] = field(default_factory=list)
    excluded_coords: list[int] = field(default_factory=list)


def _autocorr(x: np.ndarray, k_max: int) -> np.ndarray:
    """Biased (divide-by-t) sample autocorrelations at lags 1..k_max."""
    t = len(x)
    xc = x - x.mean()
    var = float(xc @ xc) / t
    if var == 0.0:
        return np.full(k_max, np.nan)
    return np.array(
        [float(xc[: t - k] @ xc[k:]) / t / var for k in range(1, k_max + 1)]
    )


def phi_max(trace: Trace, k_max: int = 20) -> PhiMaxReport:
    """max over coordinates j and lags k of retained rho_{j,k}^{1/k}.

    A cell is retained only when its autocorrelation exceeds
    ``ppf(0.95 ** (1/k_max)) / sqrt(t - k_max)``; the report is absent
    (phi_max None) when nothing passes. Zero-variance coordinates are
    excluded and listed.
    """
    if k_max < 1 or k_max > trace.t // 10:
        raise ValueError("require 1 <= k_max <= t / 10")
    threshold = float(ndtri(0.95 ** (1.0 / k_max))) / np.sqrt(trace.t - k_max)
    best = None
    retained: list[tuple[int, int, float]] = []
    excluded: list[int] = []
    for j in range(trace.p):
        rho = _autocorr(trace.samples[:, j], k_max)
        if np.isnan(rho).any():
            excluded.append(j)
            continue
        for k in range(1, k_max + 1):
            r = rho[k - 1]
            if r > threshold:
                retained.append((j, k, float(r)))
                cand = r ** (1.0 / k)
                if best is None or cand > best:
                    best = float(cand)
    return PhiMaxReport(best, threshold, retained, excluded)


def w1_kernel_distance(
    xs: np.ndarray, ys: np.ndarray, phi: float = 1.0, sigma: float = 1.0
) -> float:
    """Kernel mean-embedding distance with K(u, v) = (1/sigma)
    exp(-phi ||u - v||^2), as a V-statistic (diagonal terms included)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("sample sets must share a dimension")
    if xs.shape[0] == 0 or ys.shape[0] == 0:
        raise ValueError("sample sets must be nonempty")

    def kernel_sum(a: np.ndarray, b: np.ndarray) -> float:
        """sum_ij exp(-phi ||a_i - b_j||^2) over all pairs."""
        a2 = np.einsum("ij,ij->i", a, a)
        b2 = np.einsum("ij,ij->i", b, b)
        d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
        np.maximum(d2, 0.0, out=d2)
        return float(np.exp(-phi * d2).sum())

    m, n = xs.shape[0], ys.shape[0]
    kxx = kernel_sum(xs, xs)
    kyy = kernel_sum(ys, ys)
    kxy = kernel_sum(xs, ys)
    val = (kxx / (m * m) + kyy / (n * n) - 2.0 * kxy / (m * n)) / sigma
    return float(np.sqrt(max(val, 0.0)))


def _spectral_var(x: np.ndarray) -> float:
    """Spectral density of x at frequency zero, estimated by summing the
    initial positive sequence of autocovariances."""
    t = len(x)
    xc = x - x.mean()
    gamma0 = float(xc @ xc) / t
    if gamma0 == 0.0:
        raise ValueError("window is constant")
    s = gamma0
    for k in range(1, t - 1):
        g = float(xc[: t - k] @ xc[k:]) / t
        if g <= 0.0:
            break
        s += 2.0 * g
    return s


def geweke_z(
    trace: Trace, first_frac: float = 0.1, last_frac: float = 0.5
) -> np.ndarray:
    """Per-coordinate Geweke z-scores comparing the first and last windows."""
    if not (0.0 < first_frac < 1.0 and 0.0 < last_frac < 1.0):
        raise ValueError("window fractions must lie in (0, 1)")
    if first_frac + last_frac >= 1.0:
        raise ValueError("windows must not overlap")
    na = int(trace.t * first_frac)
    nb = int(trace.t * last_frac)
    if na < 10 or nb < 10:
        raise ValueError("trace too short for the requested windows")
    z = np.empty(trace.p)
    for j in range(trace.p):
        a = trace.samples[:na, j]
        b = trace.samples[trace.t - nb :, j]
        z[j] = (a.mean() - b.mean()) / np.sqrt(
            _spectral_var(a) / na + _spectral_var(b) / nb
        )
    return z


def effective_sample_size(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate ESS t / (1 + 2 sum rho_k), truncating the
    autocorrelation sum at the first nonpositive value.

    Returns (ess, constant_flags); constant coordinates report ESS = t
    with their flag set.
    """
    t = trace.t
    ess = np.empty(trace.p)
    flags = np.zeros(trace.p, dtype=bool)
    for j in range(trace.p):
        x = trace.samples[:, j]
        xc = x - x.mean()
        var = float(xc @ xc) / t
        if var == 0.0:
            ess[j] = t
            flags[j] = True
            continue
        acc = 0.0
        for k in range(1, min(t - 1, 5000)):
            rho = float(xc[: t - k] @ xc[k:]) / t / var
            if rho <= 0.0:
                break
            acc += rho
        ess[j] = t / (1.0 + 2.0 * acc)
    return ess, flags


# ---------------------------------------------------------------------------
# trace CSV round trip
# ---------------------------------------------------------------------------


def write_trace_csv(trace: Trace, path: str | Path, names=None) -> None:
    names = [f"x{j}" for j in range(trace.p)] if names is None else names
    write_csv(path, names, (row.tolist() for row in trace.samples))


def read_trace_csv(path: str | Path, seed: int | None = None) -> Trace:
    rows = iter_csv_rows(path)
    next(rows)  # header
    return Trace(np.array([[float(v) for v in row] for row in rows]), seed=seed)
