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
* ``effective_sample_size`` — per-coordinate ESS from the same spectral
  density.

``phi_max``, ``geweke_z`` and ``effective_sample_size`` all start from one
autocovariance routine, an FFT over every lag of every column.  The
spectral density at frequency zero sums those autocovariances by Geyer's
(1992) initial monotone sequence.  All estimators are deterministic
functions of the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .config import write_csv

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


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (divide-by-t) autocovariances at lags 0..t-1 of each column
    of the t x p array x, as a t x p array.

    The FFT is zero-padded to 2t, so no lag wraps around.  Columns go
    through it one at a time, which keeps its temporaries to one column's.
    """
    t = x.shape[0]
    gamma = np.empty(x.shape)
    for j, col in enumerate(x.T):
        f = np.fft.rfft(col - col.mean(), 2 * t)
        gamma[:, j] = np.fft.irfft(f.real**2 + f.imag**2, 2 * t)[:t] / t
    return gamma


def phi_max(trace: Trace, k_max: int = 20) -> PhiMaxReport:
    """max over coordinates j and lags k of retained rho_{j,k}^{1/k}.

    A cell is retained only when its autocorrelation exceeds
    ``ppf(0.95 ** (1/k_max)) / sqrt(t - k_max)``; the report is absent
    (phi_max None) when nothing passes. Zero-variance coordinates are
    excluded and listed.
    """
    if k_max < 1 or k_max > trace.t // 10:
        raise ValueError("require 1 <= k_max <= t / 10")
    threshold = NormalDist().inv_cdf(0.95 ** (1.0 / k_max)) / np.sqrt(trace.t - k_max)
    gamma = _autocovariance(trace.samples)
    constant = gamma[0] == 0.0
    rho = gamma[1 : k_max + 1] / np.where(constant, np.nan, gamma[0])  # (k_max, p)
    j, k = np.nonzero(rho.T > threshold)  # retained cells, by coordinate, then lag
    r = rho[k, j]
    best = float((r ** (1.0 / (k + 1))).max()) if r.size else None
    retained = list(zip(j.tolist(), (k + 1).tolist(), r.tolist()))
    return PhiMaxReport(best, threshold, retained, np.flatnonzero(constant).tolist())


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


def _spectral_var(gamma: np.ndarray) -> np.ndarray:
    """Spectral density at frequency zero of each column, from its
    autocovariances ``gamma`` (lags 0..t-1 down the rows), by Geyer's
    initial monotone sequence: the pair sums G_m = gamma_2m + gamma_2m+1,
    each lowered to the least of G_0..G_m, summed up to the first G_m <= 0,
    give S = 2 sum G_m - gamma_0.  S is floored at gamma_0, so an ESS
    t gamma_0 / S never exceeds t.  NaN for a zero-variance column.
    """
    m = gamma.shape[0] // 2
    pairs = gamma[: 2 * m : 2] + gamma[1 : 2 * m : 2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=0)
    s = 2.0 * np.where(kept, np.minimum.accumulate(pairs, axis=0), 0.0).sum(axis=0) - gamma[0]
    return np.where(gamma[0] == 0.0, np.nan, np.maximum(s, gamma[0]))


def geweke_z(
    trace: Trace, first_frac: float = 0.1, last_frac: float = 0.5
) -> np.ndarray:
    """Per-coordinate Geweke z-scores comparing the first and last windows;
    NaN for a coordinate that is constant inside either window."""
    if not (0.0 < first_frac < 1.0 and 0.0 < last_frac < 1.0):
        raise ValueError("window fractions must lie in (0, 1)")
    if first_frac + last_frac >= 1.0:
        raise ValueError("windows must not overlap")
    na = int(trace.t * first_frac)
    nb = int(trace.t * last_frac)
    if na < 10 or nb < 10:
        raise ValueError("trace too short for the requested windows")
    a = trace.samples[:na]
    b = trace.samples[trace.t - nb :]
    var_a = _spectral_var(_autocovariance(a)) / na
    var_b = _spectral_var(_autocovariance(b)) / nb
    return (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(var_a + var_b)


def effective_sample_size(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate ESS t gamma_0 / S, with S the spectral density at
    frequency zero by the initial monotone sequence (see ``_spectral_var``).

    Returns (ess, constant_flags); constant coordinates report ESS = t
    with their flag set.
    """
    gamma = _autocovariance(trace.samples)
    flags = gamma[0] == 0.0
    return np.where(flags, trace.t, trace.t * (gamma[0] / _spectral_var(gamma))), flags


# ---------------------------------------------------------------------------
# trace CSV round trip
# ---------------------------------------------------------------------------


def write_trace_csv(trace: Trace, path: str | Path, names=None) -> None:
    names = [f"x{j}" for j in range(trace.p)] if names is None else names
    write_csv(path, names, (row.tolist() for row in trace.samples))


def read_trace_csv(path: str | Path) -> Trace:
    """The trace under a CSV file's header row.  Blank lines are skipped; a
    ragged row or a non-numeric entry, "#" included, raises ``ValueError``."""
    with warnings.catch_warnings():  # no rows reads as an empty array, which Trace refuses
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        samples = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8", comments=None)
    return Trace(samples)
