"""Marginal MCMC for Gaussian-process regression with a randomized
low-rank eigendecomposition of the squared-exponential kernel matrix.

Model: y = f(x) + noise, f a mean-zero GP with covariance
tau^2 exp(-phi ||x - x'||^2), gamma priors on the inverse scales
sigma^{-2}, tau^{-2}, and a discrete-uniform prior on phi over a grid.
The sampler works on the marginal likelihood of (sigma^2, tau^2, phi),
replacing Sigma(phi) by a partial eigendecomposition U Lambda U' whose
Frobenius error is certified below a target delta by a randomized probe
estimate.

The conditional law of f is implemented exactly as the source model
specifies it: f | y, theta ~ N(Psi y, Psi) with
Psi = (tau^2 Sigma_eps + sigma^2 I)^{-1}.

A sweep evaluates the likelihood over the whole phi grid once, at the
proposed variances; the MH ratio and the phi weights read that vector and
the one kept from the last sweep.  The chain's predictive mean averages one
draw of f per kept sweep.  Given the trace those draws are independent, so
after the loop their sum on each factor is drawn from its own Gaussian law,
one normal n-vector per factor that holds a kept sweep.  One function,
``_gaussian_rows``, draws every such law N(P y, P) on a factor: one sweep's,
the chain's sums, and at z = 0 the predictive mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SeededRng, sample_discrete

__all__ = [
    "GPModel",
    "LowRankFactor",
    "GPState",
    "se_covariance",
    "randomized_partial_eig",
    "eig_accuracy_metrics",
    "marginal_loglik",
    "marginal_loglik_dense",
    "mh_griddy_step",
    "predictive_f_draw",
    "predictive_mean",
    "delta_for_epsilon",
    "GPSampler",
    "simulate_gp",
    "prediction_rmse_curve",
    "run_budget_experiment",
]

_LOG_2PI = math.log(2.0 * math.pi)

#: Range finder: Gaussian columns per basis block, extra columns after the
#: certificate, and probes per residual estimate.
_BLOCK, _OVERSAMPLE, _N_PROBES = 8, 10, 10

#: Initial random-walk scale on (log sigma^2, log tau^2), and the acceptance
#: rate its burn-in adaptation aims at.
_PROP_SCALE, _TARGET_ACCEPT = 0.2, 0.3

#: Gamma(a, b) prior of each inverse scale, sigma^{-2} and tau^{-2}.
_PRIOR_A, _PRIOR_B = 2.0, 1.0

#: Predictive draws, or kept sweeps of a chain's predictive sum, per array
#: expression, which bounds a pass's temporaries to a few
#: (_ROW_BLOCK x max(n, r)) arrays.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class GPModel:
    X: np.ndarray  # (n, q) inputs
    y: np.ndarray  # (n,) standardized responses
    phi_grid: np.ndarray

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if X.shape[0] < 2:
            raise ValueError("need at least 2 inputs")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        grid = np.asarray(self.phi_grid, dtype=np.float64)
        if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise ValueError("phi_grid must be positive and strictly increasing")
        object.__setattr__(self, "phi_grid", grid)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class LowRankFactor:
    U: np.ndarray  # (n, r) orthonormal columns
    lam: np.ndarray  # (r,) eigenvalues, descending
    delta: float
    resid_fro: float  # measured ||Sigma - U diag(lam) U'||_F
    full_rank: bool = False  # basis reached n, or its next block would: dense eigh

    @property
    def r(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class GPState:
    sigma2: float
    tau2: float
    phi_index: int

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0 or self.tau2 <= 0.0:
            raise ValueError("variance components must be positive")


def se_covariance(X: np.ndarray, phi: float) -> np.ndarray:
    """Sigma_ij = exp(-phi ||x_i - x_j||^2) (unit-variance SE kernel)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-phi * d2)


def _lower_gamma_inv(a: int, q: float) -> float:
    """x with P(a, x) = q, P the regularized lower incomplete gamma function,
    for an integer a >= 1 and q in (0, 1] (inf at q = 1).

    P(a, x) = x^a e^{-x} S(x) / a!, with the series S(x) = sum_n x^n a! /
    (a + n)!, and d log P / d log x = a / S.  Newton's method in log x
    starts at (a! q)^{1/a}, where x^a / a! = q, below the root, and climbs
    to it monotonically: log P is concave in log x (a log-gamma variable has
    a log-concave density).  Each step takes the log of the ratio P / q, so
    for q <= 0.1 the root comes out within an ulp or two, even near
    q = 1e-300."""
    if q >= 1.0:
        return math.inf
    fact_q = math.factorial(a) * q
    x = fact_q ** (1.0 / a)
    for _ in range(100):
        term = total = 1.0
        n = a
        while term > 1e-17 * total:
            n += 1
            term *= x / n
            total += term
        step = math.log(x**a * math.exp(-x) * total / fact_q) * total / a
        x *= math.exp(-step)
        # the log's rounding, scaled by total / a, is the step's noise floor
        if abs(step) <= 1e-15 * total:
            return x
    raise ArithmeticError(f"P^-1({a}, {q}) did not converge")  # pragma: no cover


def randomized_partial_eig(
    rng: SeededRng, Sigma: np.ndarray, delta: float, d_prob: int = 3
) -> LowRankFactor:
    """Adaptive randomized range finder + Nystrom eigendecomposition.

    The basis grows in blocks as large as itself (``_BLOCK``, ``_BLOCK``,
    2 ``_BLOCK``, 4 ``_BLOCK``, ...), so it reaches rank k in O(log k)
    rounds, until the probe-based estimate of ||(I - QQ')Sigma||_F
    certifies half the delta target at confidence 1 - 10^{-d_prob}, d_prob
    >= 1 (chi-square lower-tail safety factor on ``_N_PROBES`` Gaussian
    probes);
    then ``_OVERSAMPLE`` extra columns are added before the Nystrom step.
    A basis that fills R^n captures Sigma itself (with Q square and
    orthogonal, Sigma Q (Q' Sigma Q)^{-1} Q' Sigma = Sigma), so when the
    basis reaches n, or the next block would take it there, Sigma is
    factored by its dense eigendecomposition instead.  Either way the
    factor is truncated to the smallest rank whose dropped spectral mass
    keeps the overall Frobenius budget, so its trailing directions stay
    well above the accuracy floor.  Raises ``ValueError`` when the factor's
    measured residual still exceeds delta: a delta below the floor that
    the Nystrom shift (partial basis) or the rounding of the dense
    eigendecomposition (full basis) sets cannot be met.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if d_prob < 1:
        # 10^0 = 1 makes the quantile inf and the safety factor 0, so the
        # first block would certify any residual
        raise ValueError(f"d_prob must be >= 1, got {d_prob}")
    if not np.isfinite(Sigma).all():
        raise ValueError("Sigma must be finite")
    n = Sigma.shape[0]
    # certify against delta/2 so the Nystrom reconstruction keeps slack;
    # the square overflows a double past delta = 2.68e154
    target2 = (delta / 2.0) ** 2 if delta < 2.68e154 else math.inf
    # mean of _N_PROBES one-probe estimators; worst-case (rank-1 residual)
    # lower tail is chi2(_N_PROBES)/_N_PROBES; its quantile is 2 P^-1(k/2, q)
    safety = _N_PROBES / (2 * _lower_gamma_inv(_N_PROBES // 2, 10.0 ** (-d_prob)))
    # the scale of Sigma's spectrum: trace(Sigma) >= ||Sigma||_2 for a PSD
    # Sigma.  A projected column below 1e-12 of it is rounding noise.
    scale = max(1.0, float(np.trace(Sigma)))

    Q = np.empty((n, n))  # the basis is Q[:, :k]
    k = 0

    def extend(columns: int) -> int:
        """Add the new directions of Sigma G, G with ``columns`` Gaussian
        columns, to the basis, as many as fit in n; return how many there
        were.  Block Gram-Schmidt done twice keeps the basis orthonormal
        when the projected block is mostly rounding error (Halko,
        Martinsson & Tropp 2011, sec. 4.4)."""
        nonlocal k
        Qk = Q[:, :k]
        Y = Sigma @ rng.standard_normal(size=(n, columns))
        Y -= Qk @ (Qk.T @ Y)
        Qb, Rb = np.linalg.qr(Y)
        Qb = Qb[:, np.abs(np.diag(Rb)) > 1e-12 * scale]
        Qb -= Qk @ (Qk.T @ Qb)
        Qb = np.linalg.qr(Qb)[0]
        m = min(Qb.shape[1], n - k)
        Q[:, k : k + m] = Qb[:, :m]
        k += m
        return Qb.shape[1]

    # each block is as large as the basis, so rank k takes O(log k) rounds
    full_rank = False
    while extend(max(_BLOCK, k)) and k < n:
        W = rng.standard_normal(size=(n, _N_PROBES))
        R = Sigma @ W
        R -= Q[:, :k] @ (Q[:, :k].T @ R)
        est_f2 = float(np.einsum("ij,ij->", R, R)) / _N_PROBES
        if est_f2 * safety <= target2:
            extend(_OVERSAMPLE)
            break
        if k + max(_BLOCK, k) >= n:
            full_rank = True  # the next block would fill R^n: skip it
            break
    full_rank = full_rank or k == n

    if full_rank:
        # with Q square and orthogonal, the Nystrom step only rebuilds Sigma
        vals, vecs = np.linalg.eigh(Sigma)
        # descending, and copied: BLAS takes no negative column stride
        Uf, lam = vecs[:, ::-1].copy(), np.clip(vals[::-1], 0.0, None)
        floor = "the rounding of the dense eigendecomposition sets"
    else:
        # Nystrom step with a tiny spectral shift for factorization stability
        Q = Q[:, :k]
        B1 = Sigma @ Q
        shift = 1e-12 * scale
        B2 = Q.T @ B1 + shift * np.eye(k)
        C = np.linalg.cholesky(0.5 * (B2 + B2.T))
        F = np.linalg.solve(C, B1.T).T  # B1 C^{-T}
        Uf, s, _ = np.linalg.svd(F, full_matrices=False)
        lam = np.clip(s * s - shift, 0.0, None)
        floor = "the Nystrom shift 1e-12 tr(Sigma) sets"

    # truncate: ||Sigma - Sigma_m||_F <= ||Sigma - Sigma_r||_F + sqrt(sum
    # of dropped lam^2), so dropping tail mass up to delta/2 keeps the
    # total within delta
    tail2 = np.cumsum(lam[::-1] ** 2)[::-1]  # tail2[i] = sum_{j >= i} lam_j^2
    cut = np.searchsorted(-tail2, -target2)  # first i with tail2[i] <= target2
    m = max(int(cut), 1)
    Uf, lam = Uf[:, :m], lam[:m]

    resid = Sigma - (Uf * lam) @ Uf.T
    resid_fro = float(np.linalg.norm(resid))
    if resid_fro > delta:
        raise ValueError(
            f"the rank-{m} factor (n = {n}) misses delta = {delta:.3e}: "
            f"||Sigma - U Lambda U'||_F = {resid_fro:.3e}; {floor} a floor near that"
        )
    return LowRankFactor(Uf, lam, delta, resid_fro, full_rank)


def eig_accuracy_metrics(
    full_vals: np.ndarray,
    full_vecs: np.ndarray,
    factor: LowRankFactor,
    rng: SeededRng,
) -> tuple[float, float, float]:
    """Accuracy metrics (R, F, C) of a factor against the exact
    eigendecomposition (``full_vals`` descending, columns of ``full_vecs``
    matching).

    R: l2 distance of the leading eigenvalues; F: ||I - U_eps' U*||_F /
    sqrt(n) after sign alignment; C: correlation between a random vector in
    the exact leading eigenspace and its projection onto the approximate
    one.
    """
    r = factor.r
    vals = np.asarray(full_vals, dtype=np.float64)[:r]
    vecs = np.asarray(full_vecs, dtype=np.float64)[:, :r]
    R = float(np.sqrt(np.sum((vals - factor.lam[: len(vals)]) ** 2)))

    M = factor.U.T @ vecs
    signs = np.sign(np.diag(M))
    signs[signs == 0.0] = 1.0
    M = M * signs[:, None]
    n = factor.U.shape[0]
    F = float(np.linalg.norm(np.eye(r) - M) / math.sqrt(n))

    beta = rng.standard_normal(size=r)
    y = vecs @ beta
    gram = factor.U.T @ factor.U
    fitted = factor.U @ np.linalg.solve(gram, factor.U.T @ y)
    C = float(np.corrcoef(y, fitted)[0, 1])
    return R, F, C


def _stack(
    y: np.ndarray, factors: list[LowRankFactor]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All the likelihood needs of y and the factors, as zero-padded
    (factors x largest rank) arrays: each factor's spectrum ``lam`` and its
    U'y ``y_u``, and the vector ``resid2`` of y'y - |U'y|^2.  A padded entry
    (lam = 0, U'y = 0) weighs in :func:`_loglik` as a direction off U does."""
    lam = np.zeros((len(factors), max(f.r for f in factors)))
    y_u = np.zeros_like(lam)
    for k, f in enumerate(factors):
        lam[k, : f.r] = f.lam
        y_u[k, : f.r] = f.U.T @ y
    return lam, y_u, float(y @ y) - np.einsum("ij,ij->i", y_u, y_u)


def _loglik(n: int, lam, y_u, resid2, sigma2: float, tau2: float):
    """Gaussian marginal log-likelihood of an n-vector y under covariance
    tau^2 U diag(lam) U' + sigma^2 I, by the eigen-identity (Rasmussen &
    Williams 2006, sec. 2.3), over the trailing axis of ``lam`` and ``y_u``:
    one value per row of :func:`_stack`'s arrays, or one for a row."""
    d = tau2 * lam + sigma2
    logdet = np.log(d).sum(axis=-1) + (n - lam.shape[-1]) * math.log(sigma2)
    quad = (y_u * y_u / d).sum(axis=-1) + resid2 / sigma2
    return -0.5 * (n * _LOG_2PI + logdet + quad)


def marginal_loglik(
    y: np.ndarray, factor: LowRankFactor, sigma2: float, tau2: float
) -> float:
    """Gaussian marginal log-likelihood of y under covariance
    tau^2 U diag(lam) U' + sigma^2 I: O(nr) to project y, then O(r)."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    if tau2 < 0.0:
        raise ValueError("tau2 must be nonnegative")
    return float(_loglik(len(y), *_stack(y, [factor]), sigma2, tau2)[0])


def marginal_loglik_dense(
    y: np.ndarray, Sigma: np.ndarray, sigma2: float, tau2: float
) -> float:
    """Dense-Cholesky oracle for :func:`marginal_loglik`."""
    n = len(y)
    M = tau2 * Sigma + sigma2 * np.eye(n)
    L = np.linalg.cholesky(M)
    half = np.linalg.solve(L, y)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return -0.5 * (n * _LOG_2PI + logdet + float(half @ half))


def _log_prior_logscale(x: float) -> float:
    """Log-density of log(v) when v^{-1} ~ Gamma(a, b) (i.e. inverse-gamma
    v), expressed on the log scale with its Jacobian: -a x - b e^{-x}."""
    return -_PRIOR_A * x - _PRIOR_B * math.exp(-x)


def mh_griddy_step(
    rng: SeededRng,
    state: GPState,
    model: GPModel,
    grid: tuple[np.ndarray, np.ndarray, np.ndarray],
    prop_scale: float,
    loglik: np.ndarray | None = None,
) -> tuple[GPState, bool, np.ndarray]:
    """One joint random-walk MH update of (log sigma^2, log tau^2) followed
    by a griddy-Gibbs draw of phi from its exact discrete conditional.
    ``grid`` is ``_stack(model.y, factors)`` of the phi grid's factors,
    formed once for the chain, and ``loglik`` the likelihood at every phi
    and ``state``'s variances, as the last step returned it (None
    evaluates it).  The step evaluates the grid once, at the proposal: the
    MH ratio reads the current phi's row of both vectors, and the phi
    weights come from the vector of the variances it keeps.  Returns the
    new state, whether the proposal was accepted, and that vector."""
    if loglik is None:
        loglik = _loglik(model.n, *grid, state.sigma2, state.tau2)
    k = state.phi_index
    x = math.log(state.sigma2)
    z = math.log(state.tau2)
    step = prop_scale * rng.standard_normal(size=2)
    x_new, z_new = x + step[0], z + step[1]
    sigma2, tau2 = math.exp(x_new), math.exp(z_new)
    proposed = _loglik(model.n, *grid, sigma2, tau2)
    log_alpha = (
        proposed[k] + _log_prior_logscale(x_new) + _log_prior_logscale(z_new)
    ) - (loglik[k] + _log_prior_logscale(x) + _log_prior_logscale(z))
    accepted = math.log(rng.uniform()) < log_alpha
    if accepted:
        loglik = proposed
    else:
        sigma2, tau2 = state.sigma2, state.tau2

    w = np.exp(loglik - loglik.max())
    phi_index = sample_discrete(rng, w / w.sum())
    return GPState(sigma2, tau2, phi_index), accepted, loglik


def _gaussian_rows(
    factor: LowRankFactor, y: np.ndarray, E: np.ndarray, S: float, Z: np.ndarray
) -> np.ndarray:
    """Rows P y + P^(1/2) z, one per row z of ``Z``: draws of N(P y, P) with
    P = U diag(E) U' + S (I - U U').  The root adds sqrt(E) - sqrt(S) along
    U, taken as D / (sqrt(E) + sqrt(S)) from the D = E - S that the mean
    uses.  Every predictive law of f is one: a sweep's Psi has
    E = 1 / (tau2 lam + sigma2) and S = 1 / sigma2, and a sum of
    independent draws on one factor sums its terms' E and S."""
    D = E - S
    C = D * (factor.U.T @ y) + D / (np.sqrt(E) + math.sqrt(S)) * (Z @ factor.U)
    return C @ factor.U.T + S * y + math.sqrt(S) * Z


def predictive_mean(state: GPState, factor: LowRankFactor, y: np.ndarray) -> np.ndarray:
    """Psi y with Psi = (tau^2 Sigma_eps + sigma^2 I)^{-1}."""
    E = 1.0 / (state.tau2 * factor.lam + state.sigma2)
    return _gaussian_rows(factor, y, E, 1.0 / state.sigma2, np.zeros((1, len(y))))[0]


def predictive_f_draw(
    rng: SeededRng, state: GPState, factor: LowRankFactor, y: np.ndarray
) -> np.ndarray:
    """Draw f ~ N(Psi y, Psi) using the eigen-identity for Psi and its
    symmetric square root."""
    E = 1.0 / (state.tau2 * factor.lam + state.sigma2)
    Z = rng.standard_normal(size=(1, len(y)))
    return _gaussian_rows(factor, y, E, 1.0 / state.sigma2, Z)[0]


def _predictive_sum(
    rng: SeededRng, factors: list[LowRankFactor], y: np.ndarray, trace: np.ndarray
) -> np.ndarray:
    """A draw of the sum of one predictive draw per kept sweep, row j of
    ``trace`` being sweep j's (sigma2, tau2, phi_index).  Given the trace
    the draws f_j ~ N(Psi_j y, Psi_j) are independent, so the sum of those
    on factor k is one draw of N(P y, P), P = sum_j Psi_j, whose
    eigenvalues are E = sum_j 1 / (tau2_j lam + sigma2_j) along U and
    S = sum_j 1 / sigma2_j off it.  E sums positive terms, so it stays
    positive.  E sums over blocks of ``_ROW_BLOCK`` sweeps, and each factor
    that holds a kept sweep draws one normal n-vector, in grid order."""
    sigma2, tau2, k_of = trace[:, 0], trace[:, 1], trace[:, 2].astype(np.int64)
    total = np.zeros(len(y))
    for k, factor in enumerate(factors):
        rows = np.flatnonzero(k_of == k)
        if not len(rows):
            continue
        E = np.zeros(factor.r)
        for start in range(0, len(rows), _ROW_BLOCK):
            J = rows[start : start + _ROW_BLOCK]
            E += (1.0 / (tau2[J, None] * factor.lam + sigma2[J, None])).sum(axis=0)
        S = float(np.sum(1.0 / sigma2[rows]))
        total += _gaussian_rows(factor, y, E, S, rng.standard_normal(size=(1, len(y))))[0]
    return total


def delta_for_epsilon(
    sigma2: float,
    tau2: float,
    epsilon: float,
    n: int,
    lam_max: float,
    second_branch: str = "appendix",
) -> float:
    """Frobenius target delta making the predictive law's TV error at most
    ``epsilon``.

    First branch: eps^2 sigma^4 / (tau^2 sqrt(n (tau^2 lam_max + sigma^2))).
    The second branch has two published variants: "appendix"
    (eps^2 sigma^2 / (n tau^2), conservative, the default) and "remark"
    (eps^2 sigma^2 / tau^2).  Raises ``ValueError`` when the target
    underflows to 0.
    """
    if second_branch not in ("appendix", "remark"):
        raise ValueError("second_branch must be 'appendix' or 'remark'")
    first = (
        epsilon**2
        * sigma2**2
        / (tau2 * math.sqrt(n * (tau2 * lam_max + sigma2)))
    )
    second = epsilon**2 * sigma2 / (n * tau2)
    if second_branch == "remark":
        second = epsilon**2 * sigma2 / tau2
    delta = min(first, second)
    if delta == 0.0:
        raise ValueError(f"epsilon = {epsilon!r} retargets delta to 0: the target underflows")
    return delta


class GPSampler:
    """Precomputes one factor per phi-grid point, then runs the marginal
    chain with burn-in-only Robbins-Monro adaptation of the proposal."""

    def __init__(self, rng: SeededRng, model: GPModel, delta: float, d_prob: int = 3):
        self.model = model
        self.delta = delta
        self.factors = [
            randomized_partial_eig(rng, se_covariance(model.X, phi), delta, d_prob)
            for phi in model.phi_grid
        ]

    @property
    def mean_rank(self) -> float:
        return float(np.mean([f.r for f in self.factors]))

    def run(self, rng: SeededRng, steps: int, burn_in: int) -> dict:
        """The chain from (sigma^2, tau^2) = (1, 1) at the middle of the phi
        grid: its kept trace, acceptance rate, final proposal scale, and
        ``pred_mean``, the mean over kept sweeps of one predictive draw
        of f each, whose sum :func:`_predictive_sum` draws after the loop."""
        if steps < 1 or burn_in < 0:
            raise ValueError(f"need steps >= 1 and burn_in >= 0, got {steps} and {burn_in}")
        state = GPState(1.0, 1.0, len(self.factors) // 2)
        scale = _PROP_SCALE
        n_accept = 0
        trace = np.empty((steps, 3))
        # y and the factors are fixed for the chain: stack them once
        grid = _stack(self.model.y, self.factors)
        loglik = None
        for i in range(burn_in + steps):
            state, accepted, loglik = mh_griddy_step(rng, state, self.model, grid, scale, loglik)
            if i < burn_in:
                # Robbins-Monro on the log proposal scale, burn-in only
                scale = math.exp(
                    math.log(scale)
                    + (1.0 if accepted else 0.0) / (i + 1) ** 0.6
                    - _TARGET_ACCEPT / (i + 1) ** 0.6
                )
                scale = min(max(scale, 1e-3), 5.0)
            else:
                j = i - burn_in
                n_accept += accepted
                trace[j] = (state.sigma2, state.tau2, state.phi_index)
        return {
            "trace": trace,
            "accept_rate": n_accept / steps,
            "prop_scale": scale,
            "pred_mean": _predictive_sum(rng, self.factors, self.model.y, trace) / steps,
        }


def prediction_rmse_curve(
    rng: SeededRng,
    state: GPState,
    factor: LowRankFactor,
    y: np.ndarray,
    psi_exact: np.ndarray,
    n_draws: int,
) -> np.ndarray:
    """RMSE of the running Monte-Carlo mean of f-draws against the exact
    predictive mean, one entry per draw count 1..n_draws.  The draws come
    _ROW_BLOCK at a time; a block's normals are the variates that one call
    per draw would take."""
    E = 1.0 / (state.tau2 * factor.lam + state.sigma2)
    rmse = np.empty(n_draws)
    running = np.zeros(len(y))
    for start in range(0, n_draws, _ROW_BLOCK):
        Z = rng.standard_normal(size=(min(_ROW_BLOCK, n_draws - start), len(y)))
        F = _gaussian_rows(factor, y, E, 1.0 / state.sigma2, Z)
        F[0] += running
        sums = np.cumsum(F, axis=0)
        running = sums[-1]
        counts = np.arange(start + 1, start + len(Z) + 1)[:, None]
        rmse[start : start + len(Z)] = np.sqrt(np.mean((sums / counts - psi_exact) ** 2, axis=1))
    return rmse


def run_budget_experiment(
    seed: int,
    n: int = 200,
    q: int = 6,
    phi: float = 0.1,
    sigma2: float = 0.05,
    tau2: float = 1.0,
    deltas: tuple[float, ...] = (0.05, 0.001),
    n_draws: int = 2400,
    d_prob: int = 3,
) -> dict[float, tuple[int, np.ndarray]]:
    """Bias-variance budget experiment for the low-rank predictive draws.

    Simulates one normal-design data set, then for each Frobenius target
    delta builds a factor and accumulates predictive f-draws at the true
    hyperparameters, recording the RMSE of the running mean against the
    dense predictive mean (tau^2 Sigma + sigma^2 I)^{-1} y.

    Cost per draw is proportional to n * rank, so a coarse factor buys
    rank_fine / rank_coarse draws per unit budget: at small budgets its
    lower per-draw cost wins, at large budgets its truncation bias does.
    The draw streams share one seed across deltas (common random numbers)
    so budget comparisons are not confounded by independent noise.

    Returns {delta: (rank, rmse_per_draw_count)}.
    """
    data_rng = SeededRng(seed, 0)
    X, _, y = simulate_gp(data_rng, n, q, phi, sigma2, tau2, "normal")
    cov = se_covariance(X, phi)
    psi_exact = np.linalg.solve(tau2 * cov + sigma2 * np.eye(n), y)
    state = GPState(sigma2, tau2, 0)
    out: dict[float, tuple[int, np.ndarray]] = {}
    for k, delta in enumerate(deltas):
        factor = randomized_partial_eig(SeededRng(seed, 10 + k), cov, delta, d_prob)
        rmse = prediction_rmse_curve(
            SeededRng(seed, 20), state, factor, y, psi_exact, n_draws
        )
        out[delta] = (factor.r, rmse)
    return out


def simulate_gp(
    rng: SeededRng,
    n: int,
    q: int,
    phi: float,
    sigma2: float,
    tau2: float,
    design: str = "grid",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic draw (X, f, y) from the model; grid design is 1-d
    equispaced on [0, 1], normal design is i.i.d. standard normal in q
    dims."""
    if design == "grid":
        X = np.linspace(0.0, 1.0, n)[:, None]
    elif design == "normal":
        X = rng.standard_normal(size=(n, q))
    else:
        raise ValueError("design must be 'grid' or 'normal'")
    Sigma = se_covariance(X, phi)
    vals, vecs = np.linalg.eigh(Sigma)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    f = math.sqrt(tau2) * (root @ rng.standard_normal(size=n))
    y = f + math.sqrt(sigma2) * rng.standard_normal(size=n)
    return X, f, y
