"""Polya-Gamma Gibbs sampling for Bayesian logistic regression, exact and
with subset-covariance approximation.

The prior is beta ~ N(0, B).

Exact sweep: omega_i ~ PG(1, x_i beta) for every observation, then
beta ~ N(S_N X' kappa, S_N) with S_N = (X' Omega X + B^{-1})^{-1},
kappa = y - 1/2.

Subset sweep: a uniform subset V is redrawn each step, omega is drawn only
on V, and beta ~ N(S_V X' kappa, S_V) with
S_V = ((N/|V|) X_V' Omega_V X_V + B^{-1})^{-1}.  Only the curvature matrix
is subsampled; the mean keeps the full-data X' kappa.  The exact sweep is
the subset sweep at |V| = N, so the two coincide draw for draw under a
shared seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import SeededRng, _pg_table, sample_polya_gamma

# the Polya-Gamma choice table, built here so that no chain's first sweep
# pays for it
_pg_table()

__all__ = [
    "LogisticData",
    "PGState",
    "SubsetPolicy",
    "gibbs_step_exact",
    "gibbs_step_subset",
    "gaussian_kl",
    "pinsker_tv",
    "run_chain",
    "simulate_logistic",
]


@dataclass(frozen=True)
class LogisticData:
    """Standardized design matrix and binary responses."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64))
        if X.ndim != 2 or len(y) != X.shape[0]:
            raise ValueError("X must be N x p with matching y")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("y entries must be 0 or 1")

    @property
    def kappa(self) -> np.ndarray:
        return self.y - 0.5

    @cached_property
    def Xt_kappa(self) -> np.ndarray:
        """X' kappa, the data term of every beta conditional's mean."""
        return self.X.T @ self.kappa

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @staticmethod
    def standardize(X_raw: np.ndarray, y: np.ndarray) -> "LogisticData":
        X = np.asarray(X_raw, dtype=np.float64)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        return LogisticData((X - X.mean(axis=0)) / sd, y)


@dataclass(frozen=True)
class PGState:
    beta: np.ndarray
    omega: np.ndarray  # weights for the indices in ``subset``
    subset: np.ndarray  # indices the weights belong to


@dataclass(frozen=True)
class SubsetPolicy:
    """Fixed subset size |V|."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("subset size must be positive")


def _precision_factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a precision matrix A = L L'."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ValueError(f"precision matrix not PD: {exc}") from exc


def _draw_beta(
    rng: SeededRng,
    Xr: np.ndarray,
    omega: np.ndarray,
    scale: float,
    B_inv: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """beta ~ N(S h, S), S = (scale * Xr' Omega Xr + B^{-1})^{-1}.

    The draw is mean + L^{-T} z = L^{-T} (L^{-1} h + z) for A = L L', so
    matched seeds give bit-identical draws whenever A and h match.
    """
    L = _precision_factor(scale * (Xr.T * omega) @ Xr + B_inv)
    z = rng.standard_normal(size=len(h))
    return np.linalg.solve(L.T, np.linalg.solve(L, h) + z)


def _sweep(rng: SeededRng, state: PGState, data: LogisticData, B_inv: np.ndarray, size: int) -> PGState:
    """PG sweep on a uniform subset of ``size`` rows, drawn without
    replacement; at size N the subset draw is skipped, so every row is
    used and no variate is spent on the subset."""
    if size == data.N:
        rows, Xr = np.arange(data.N), data.X
    else:
        rows = np.sort(rng.choice(data.N, size, replace=False, shuffle=False))
        Xr = data.X[rows]
    omega = np.asarray(sample_polya_gamma(rng, Xr @ state.beta))
    beta = _draw_beta(rng, Xr, omega, data.N / size, B_inv, data.Xt_kappa)
    return PGState(beta, omega, rows)


def gibbs_step_exact(rng: SeededRng, state: PGState, data: LogisticData, B_inv: np.ndarray) -> PGState:
    """Full-data PG sweep: all omega_i, then beta from its Gaussian
    conditional.  ``B_inv`` is the prior precision, formed once for the
    chain."""
    return _sweep(rng, state, data, B_inv, data.N)


def gibbs_step_subset(
    rng: SeededRng, state: PGState, data: LogisticData, B_inv: np.ndarray, policy: SubsetPolicy
) -> PGState:
    """Subset-covariance PG sweep, the subset redrawn every step.  A size
    of N or more is the exact sweep, draw for draw.  ``B_inv`` is as in
    :func:`gibbs_step_exact`.
    """
    size = min(policy.size, data.N)
    if size < data.p + 1:
        raise ValueError(f"subset size {size} below p + 1 = {data.p + 1}")
    return _sweep(rng, state, data, B_inv, size)


def gaussian_kl(m1, S1, m2, S2) -> float:
    """KL(N(m1, S1) || N(m2, S2)) for PD covariances."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    S1 = np.asarray(S1, dtype=np.float64)
    S2 = np.asarray(S2, dtype=np.float64)
    p = len(m1)
    L1 = _precision_factor(S1)
    L2 = _precision_factor(S2)
    # tr(S2^{-1} S1) = ||L2^{-1} L1||_F^2 and the quadratic form is
    # ||L2^{-1} (m2 - m1)||^2: one solve for both
    W = np.linalg.solve(L2, np.column_stack([L1, m2 - m1]))
    tr = float(np.sum(W[:, :p] ** 2))
    quad = float(np.sum(W[:, p] ** 2))
    logdet = 2.0 * float(np.log(np.diag(L2)).sum() - np.log(np.diag(L1)).sum())
    return 0.5 * (tr - p + quad + logdet)


def pinsker_tv(kl: float) -> float:
    """TV upper bound sqrt(KL / 2), clamped to 1."""
    return min(math.sqrt(max(kl, 0.0) / 2.0), 1.0)


@dataclass
class ChainResult:
    trace: np.ndarray  # (steps, p) post burn-in beta draws
    audit_steps: np.ndarray
    audit_tv: np.ndarray


def run_chain(
    rng: SeededRng,
    data: LogisticData,
    B: np.ndarray,
    steps: int,
    burn_in: int = 0,
    policy: SubsetPolicy | None = None,
    audit_every: int = 0,
    audit_rng: SeededRng | None = None,
) -> ChainResult:
    """Run the exact chain (policy None) or a subset chain under the prior
    N(0, B).

    When ``audit_every`` > 0 the subset chain records, every A-th step, the
    Pinsker TV bound between the beta conditional actually used (S_V) and
    the full-data conditional (S_N) formed from an audit draw of the full
    omega vector; the audit consumes only ``audit_rng`` so it never
    perturbs the chain itself.
    """
    beta = np.zeros(data.p)
    state = PGState(beta, np.full(data.N, 0.25), np.arange(data.N))
    B_inv = np.linalg.inv(B)
    keep = np.empty((steps, data.p))
    audit_steps: list[int] = []
    audit_tv: list[float] = []
    for i in range(burn_in + steps):
        if policy is None:
            state = gibbs_step_exact(rng, state, data, B_inv)
        else:
            state = gibbs_step_subset(rng, state, data, B_inv, policy)
            if audit_every and (i % audit_every == 0):
                if audit_rng is None:
                    raise ValueError("auditing requires audit_rng")
                tv = _audit_tv(audit_rng, state, data, B_inv)
                audit_steps.append(i)
                audit_tv.append(tv)
        if i >= burn_in:
            keep[i - burn_in] = state.beta
    return ChainResult(keep, np.array(audit_steps), np.array(audit_tv))


def _audit_tv(
    audit_rng: SeededRng, state: PGState, data: LogisticData, B_inv: np.ndarray
) -> float:
    """Pinsker gauge of the beta-update error at the current state:
    KL(N(S_V h, S_V) || N(S_N h, S_N)) from the Cholesky factors L_V, L_N
    of the two precisions, without forming either covariance:
    tr(S_N^{-1} S_V) = ||L_V^{-1} L_N||_F^2, the quadratic term is
    ||L_N' (m_N - m_V)||^2, and the log-determinants are sums of
    log diag L."""
    omega_full = np.asarray(sample_polya_gamma(audit_rng, data.X @ state.beta))
    h = data.Xt_kappa
    rows = state.subset
    Xr = data.X[rows]
    A_full = (data.X.T * omega_full) @ data.X + B_inv
    A_sub = (data.N / len(rows)) * (Xr.T * omega_full[rows]) @ Xr + B_inv
    full = _precision_factor(A_full)
    sub = _precision_factor(A_sub)
    tr = float(np.sum(np.linalg.solve(sub, full) ** 2))
    quad = float(np.sum((full.T @ (np.linalg.solve(A_full, h) - np.linalg.solve(A_sub, h))) ** 2))
    logdet = 2.0 * float(np.log(np.diag(sub)).sum() - np.log(np.diag(full)).sum())
    return pinsker_tv(0.5 * (tr - data.p + quad + logdet))


def simulate_logistic(rng: SeededRng, N: int, p: int) -> tuple[LogisticData, np.ndarray]:
    """Synthetic standardized logistic data with known coefficients, evenly
    spaced on [-1.5, 1.5]."""
    beta_true = np.linspace(-1.5, 1.5, p)
    X = rng.standard_normal(size=(N, p))
    logits = X @ beta_true
    y = (rng.uniform(size=N) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    return LogisticData.standardize(X, y), beta_true
