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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

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


@dataclass(frozen=True)
class GPModel:
    X: np.ndarray  # (n, q) inputs
    y: np.ndarray  # (n,) standardized responses
    phi_grid: np.ndarray
    a_sigma: float = 2.0
    b_sigma: float = 1.0
    a_tau: float = 2.0
    b_tau: float = 1.0

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
    d_prob: int
    resid_fro: float  # measured ||Sigma - U diag(lam) U'||_F
    full_rank: bool = False  # basis reached n without compression

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


def randomized_partial_eig(
    rng: SeededRng,
    Sigma: np.ndarray,
    delta: float,
    d_prob: int = 3,
    block: int = 8,
    oversample: int = 10,
    n_probes: int = 10,
) -> LowRankFactor:
    """Adaptive randomized range finder + Nystrom eigendecomposition.

    The basis grows in blocks of ``block`` columns until the probe-based
    estimate of ||(I - QQ')Sigma||_F certifies half the delta target at
    confidence 1 - 10^{-d_prob} (chi-square lower-tail safety factor on
    ``n_probes`` Gaussian probes), then ``oversample`` extra columns are
    added before the Nystrom step.  The returned factor is truncated to
    the smallest rank whose dropped spectral mass keeps the overall
    Frobenius budget, so its trailing directions stay well above the
    accuracy floor.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    n = Sigma.shape[0]
    # certify against delta/2 so the Nystrom reconstruction keeps slack
    target2 = (delta / 2.0) ** 2
    # mean of n_probes one-probe estimators; worst-case (rank-1 residual)
    # lower tail is chi2(n_probes)/n_probes; its quantile is 2 P^-1(k/2, q)
    safety = n_probes / (2 * gammaincinv(n_probes / 2, 10.0 ** (-d_prob)))

    Q = np.empty((n, 0))
    full_rank = False
    while True:
        G = rng.normal(size=(n, block))
        Y = Sigma @ G
        Y -= Q @ (Q.T @ Y)
        Qb, Rb = np.linalg.qr(Y)
        # drop directions annihilated by the projection
        keep = np.abs(np.diag(Rb)) > 1e-12 * max(1.0, float(np.abs(Rb).max()))
        Q = np.hstack([Q, Qb[:, keep]])
        if Q.shape[1] >= n:
            Q = np.linalg.qr(Q[:, :n])[0]
            full_rank = True
            break
        W = rng.normal(size=(n, n_probes))
        R = Sigma @ W
        R -= Q @ (Q.T @ R)
        est_f2 = float(np.einsum("ij,ij->", R, R)) / n_probes
        if est_f2 * safety <= target2:
            break

    if not full_rank and oversample > 0:
        G = rng.normal(size=(n, oversample))
        Y = Sigma @ G
        Y -= Q @ (Q.T @ Y)
        Qb, Rb = np.linalg.qr(Y)
        keep = np.abs(np.diag(Rb)) > 1e-12 * max(1.0, float(np.abs(Rb).max()))
        Q = np.hstack([Q, Qb[:, keep]])
        if Q.shape[1] > n:
            Q = np.linalg.qr(Q[:, :n])[0]
            full_rank = True

    # Nystrom step with a tiny spectral shift for factorization stability
    B1 = Sigma @ Q
    shift = 1e-12 * max(1.0, float(np.trace(Sigma)))
    B2 = Q.T @ B1 + shift * np.eye(Q.shape[1])
    C = np.linalg.cholesky(0.5 * (B2 + B2.T))
    F = np.linalg.solve(C, B1.T).T  # B1 C^{-T}
    Uf, s, _ = np.linalg.svd(F, full_matrices=False)
    lam = np.clip(s * s - shift, 0.0, None)

    # truncate: ||Sigma - Sigma_m||_F <= ||Sigma - Sigma_r||_F + sqrt(sum
    # of dropped lam^2), so dropping tail mass up to delta/2 keeps the
    # total within delta
    tail2 = np.cumsum(lam[::-1] ** 2)[::-1]  # tail2[i] = sum_{j >= i} lam_j^2
    cut = np.searchsorted(-tail2, -target2)  # first i with tail2[i] <= target2
    m = max(int(cut), 1)
    Uf, lam = Uf[:, :m], lam[:m]

    resid = Sigma - (Uf * lam) @ Uf.T
    resid_fro = float(np.linalg.norm(resid))
    return LowRankFactor(Uf, lam, delta, d_prob, resid_fro, full_rank)


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

    beta = rng.normal(size=r)
    y = vecs @ beta
    gram = factor.U.T @ factor.U
    proj = factor.U @ np.linalg.solve(gram, factor.U.T @ y)
    C = float(np.corrcoef(y, proj)[0, 1])
    return R, F, C


def marginal_loglik(
    y: np.ndarray, factor: LowRankFactor, sigma2: float, tau2: float
) -> float:
    """Gaussian marginal log-likelihood of y under covariance
    tau^2 U diag(lam) U' + sigma^2 I, via the eigen-identity in O(nr)."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    if tau2 < 0.0:
        raise ValueError("tau2 must be nonnegative")
    n = len(y)
    y_u = factor.U.T @ y
    d = tau2 * factor.lam + sigma2
    logdet = float(np.log(d).sum()) + (n - factor.r) * math.log(sigma2)
    quad = float((y_u * y_u / d).sum()) + (float(y @ y) - float(y_u @ y_u)) / sigma2
    return -0.5 * (n * _LOG_2PI + logdet + quad)


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


def _log_prior_logscale(x: float, a: float, b: float) -> float:
    """Log-density of log(v) when v^{-1} ~ Gamma(a, b) (i.e. inverse-gamma
    v), expressed on the log scale with its Jacobian: -a x - b e^{-x}."""
    return -a * x - b * math.exp(-x)


def _log_post(
    model: GPModel, factor: LowRankFactor, log_s2: float, log_t2: float
) -> float:
    return (
        marginal_loglik(model.y, factor, math.exp(log_s2), math.exp(log_t2))
        + _log_prior_logscale(log_s2, model.a_sigma, model.b_sigma)
        + _log_prior_logscale(log_t2, model.a_tau, model.b_tau)
    )


def mh_griddy_step(
    rng: SeededRng,
    state: GPState,
    model: GPModel,
    factors: list[LowRankFactor],
    prop_scale: float = 0.2,
) -> tuple[GPState, bool]:
    """One joint random-walk MH update of (log sigma^2, log tau^2) followed
    by a griddy-Gibbs draw of phi from its exact discrete conditional."""
    factor = factors[state.phi_index]
    x = math.log(state.sigma2)
    z = math.log(state.tau2)
    step = prop_scale * rng.normal(size=2)
    x_new, z_new = x + step[0], z + step[1]
    log_alpha = _log_post(model, factor, x_new, z_new) - _log_post(
        model, factor, x, z
    )
    accepted = math.log(rng.uniform()) < log_alpha
    if accepted:
        sigma2, tau2 = math.exp(x_new), math.exp(z_new)
    else:
        sigma2, tau2 = state.sigma2, state.tau2

    logw = np.array(
        [marginal_loglik(model.y, f, sigma2, tau2) for f in factors]
    )
    logw -= logw.max()
    w = np.exp(logw)
    phi_index = sample_discrete(rng, w / w.sum())
    return GPState(sigma2, tau2, phi_index), accepted


def predictive_mean(state: GPState, factor: LowRankFactor, y: np.ndarray) -> np.ndarray:
    """Psi y with Psi = (tau^2 Sigma_eps + sigma^2 I)^{-1}."""
    d = 1.0 / (state.tau2 * factor.lam + state.sigma2) - 1.0 / state.sigma2
    y_u = factor.U.T @ y
    return factor.U @ (d * y_u) + y / state.sigma2


def predictive_f_draw(
    rng: SeededRng, state: GPState, factor: LowRankFactor, y: np.ndarray
) -> np.ndarray:
    """Draw f ~ N(Psi y, Psi) using the eigen-identity for Psi and its
    symmetric square root."""
    mean = predictive_mean(state, factor, y)
    z = rng.normal(size=len(y))
    sig = math.sqrt(state.sigma2)
    d_half = 1.0 / np.sqrt(state.tau2 * factor.lam + state.sigma2) - 1.0 / sig
    z_u = factor.U.T @ z
    return mean + factor.U @ (d_half * z_u) + z / sig


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
    (eps^2 sigma^2 / tau^2).
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
    return min(first, second)


class GPSampler:
    """Precomputes one factor per phi-grid point, then runs the marginal
    chain with burn-in-only Robbins-Monro adaptation of the proposal."""

    def __init__(
        self,
        rng: SeededRng,
        model: GPModel,
        delta: float,
        d_prob: int = 3,
        prop_scale: float = 0.2,
        target_accept: float = 0.3,
    ):
        self.model = model
        self.delta = delta
        self.factors = [
            randomized_partial_eig(rng, se_covariance(model.X, phi), delta, d_prob)
            for phi in model.phi_grid
        ]
        self.prop_scale = prop_scale
        self.target_accept = target_accept

    @property
    def mean_rank(self) -> float:
        return float(np.mean([f.r for f in self.factors]))

    def run(
        self,
        rng: SeededRng,
        steps: int,
        burn_in: int,
        init: GPState | None = None,
        collect_predictive: bool = False,
    ) -> dict:
        if steps < 1 or burn_in < 0:
            raise ValueError(f"need steps >= 1 and burn_in >= 0, got {steps} and {burn_in}")
        state = init or GPState(1.0, 1.0, len(self.factors) // 2)
        scale = self.prop_scale
        n_accept = 0
        trace = np.empty((steps, 3))
        pred_sum = np.zeros(self.model.n)
        pred_running = [] if collect_predictive else None
        for i in range(burn_in + steps):
            state, accepted = mh_griddy_step(
                rng, state, self.model, self.factors, scale
            )
            if i < burn_in:
                # Robbins-Monro on the log proposal scale, burn-in only
                scale = math.exp(
                    math.log(scale)
                    + (1.0 if accepted else 0.0) / (i + 1) ** 0.6
                    - self.target_accept / (i + 1) ** 0.6
                )
                scale = min(max(scale, 1e-3), 5.0)
            else:
                j = i - burn_in
                n_accept += accepted
                trace[j] = (state.sigma2, state.tau2, state.phi_index)
                if collect_predictive:
                    f = predictive_f_draw(
                        rng, state, self.factors[state.phi_index], self.model.y
                    )
                    pred_sum += f
                    pred_running.append(pred_sum / (j + 1))
        out = {
            "trace": trace,
            "accept_rate": n_accept / steps,
            "prop_scale": scale,
        }
        if collect_predictive:
            out["pred_running"] = pred_running
        return out


def prediction_rmse_curve(
    rng: SeededRng,
    state: GPState,
    factor: LowRankFactor,
    y: np.ndarray,
    psi_exact: np.ndarray,
    n_draws: int,
) -> np.ndarray:
    """RMSE of the running Monte-Carlo mean of f-draws against the exact
    predictive mean, one entry per draw count 1..n_draws."""
    running = np.zeros(len(y))
    rmse = np.empty(n_draws)
    for j in range(n_draws):
        running += predictive_f_draw(rng, state, factor, y)
        rmse[j] = math.sqrt(float(np.mean((running / (j + 1) - psi_exact) ** 2)))
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
        X = rng.normal(size=(n, q))
    else:
        raise ValueError("design must be 'grid' or 'normal'")
    Sigma = se_covariance(X, phi)
    vals, vecs = np.linalg.eigh(Sigma)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    f = math.sqrt(tau2) * (root @ rng.normal(size=n))
    y = f + math.sqrt(sigma2) * rng.normal(size=n)
    return X, f, y
