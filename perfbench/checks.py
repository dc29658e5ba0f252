"""Output checks of the benchmark rounds.

Every check compares a program output either with a value computed here
without ``amcmc`` (a Newton/importance-sampling posterior mean, a dense
Cholesky likelihood, a kernel matrix rebuilt with numpy, closed forms in
60-digit ``mpmath`` arithmetic, brute-force double sums) or with a property
the method must have (allocations sum to the cell count, an acceptance
rate lies strictly inside (0, 1)).  None compares with a stored output.

Each check returns ``(ok, why)``; ``why`` says what failed.  Tolerances that
involve Monte Carlo error are ``Z`` standard errors, with the error
estimated from the chain itself (:func:`ess`).  ``selftest.py`` feeds every
check a known-wrong output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Standard errors a Monte Carlo estimate may sit from its reference.
Z = 5.0
#: Relative tolerance for closed forms evaluated in double precision.
REL = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


def _result(failures: list[str]) -> tuple[bool, str]:
    return (not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# Monte Carlo error
# ---------------------------------------------------------------------------


def ess(x: np.ndarray) -> float:
    """Effective sample size with Geyer's initial positive sequence over
    FFT autocovariances (pairs of lags summed until a pair turns negative)."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1e-12))


def mean_ess(trace: np.ndarray) -> float:
    trace = np.atleast_2d(np.asarray(trace, dtype=np.float64).T).T
    return float(np.mean([ess(trace[:, j]) for j in range(trace.shape[1])]))


def _mcse(trace: np.ndarray) -> np.ndarray:
    return np.array(
        [trace[:, j].std(ddof=1) / math.sqrt(ess(trace[:, j])) for j in range(trace.shape[1])]
    )


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------


def bit_identical(a: np.ndarray, b: np.ndarray) -> tuple[bool, str]:
    """The |V| = N subset chain must reproduce the exact chain bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        diff = int(np.sum(a != b)) if a.shape == b.shape else -1
        return False, f"|V| = N trace differs from the exact trace ({diff} entries)"
    return True, ""


def logistic_posterior_mean(
    X, y, prior_var: float, trace, gen: np.random.Generator, draws: int = 4000
) -> tuple[bool, str]:
    """Chain mean of beta against the posterior mean of logistic regression
    with a N(0, prior_var I) prior, by importance sampling from a
    multivariate t(5) centred at the Newton mode with the Laplace scale."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    N, p = X.shape
    beta = np.zeros(p)
    for _ in range(100):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu) - beta / prior_var
        H = (X.T * (mu * (1.0 - mu))) @ X + np.eye(p) / prior_var
        step = np.linalg.solve(H, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-12:
            break
    L = np.linalg.cholesky(np.linalg.inv(H))
    nu = 5.0
    z = gen.standard_normal((draws, p))
    g = gen.chisquare(nu, draws)
    theta = beta + (z @ L.T) * np.sqrt(nu / g)[:, None]
    log_q = -0.5 * (nu + p) * np.log1p((z * z).sum(axis=1) / g)
    log_post = np.empty(draws)
    for lo in range(0, draws, 500):
        eta = theta[lo : lo + 500] @ X.T
        log_post[lo : lo + 500] = (y * eta - np.logaddexp(0.0, eta)).sum(axis=1)
    log_post -= (theta * theta).sum(axis=1) / (2.0 * prior_var)
    log_w = log_post - log_q
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    ref = w @ theta
    se_ref = np.sqrt((w[:, None] ** 2 * (theta - ref) ** 2).sum(axis=0))

    trace = np.asarray(trace, dtype=np.float64)
    dev = np.abs(trace.mean(axis=0) - ref)
    tol = Z * np.sqrt(_mcse(trace) ** 2 + se_ref**2)
    bad = [f"beta[{j}] mean {trace[:, j].mean():.5f} vs {ref[j]:.5f} (tol {tol[j]:.5f})"
           for j in range(p) if not dev[j] <= tol[j]]
    return _result(bad)


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------


def allocations_valid(kept) -> tuple[bool, str]:
    """Every allocation Z(c) of every sweep is nonnegative and sums to the
    count n(c) of the table the sweep ran on."""
    bad = []
    for i, (table, Z_) in enumerate(kept):
        if set(Z_) != set(table.cells):
            bad.append(f"sweep {i}: allocation cells differ from the table's")
            continue
        for c, z in Z_.items():
            z = np.asarray(z)
            if z.min() < 0 or int(z.sum()) != table.cells[c]:
                bad.append(f"sweep {i} cell {c}: Z = {z.tolist()}, n(c) = {table.cells[c]}")
    return _result(bad)


def cell_means_match_counts(trace, counts, total: int) -> tuple[bool, str]:
    """Posterior means of pi(c) on the top cells lie within Z standard errors
    of n(c)/N; the error combines the sampling error of n(c)/N with the
    chain's Monte Carlo error."""
    trace = np.asarray(trace, dtype=np.float64)
    p_hat = np.asarray(counts, dtype=np.float64) / total
    se = np.sqrt(p_hat * (1.0 - p_hat) / total + _mcse(trace) ** 2)
    dev = np.abs(trace.mean(axis=0) - p_hat)
    bad = [f"cell {j}: mean pi {trace[:, j].mean():.6f} vs n(c)/N {p_hat[j]:.6f} ({dev[j] / se[j]:.1f} se)"
           for j in range(len(p_hat)) if not dev[j] <= Z * se[j]]
    return _result(bad)


# ---------------------------------------------------------------------------
# gp
# ---------------------------------------------------------------------------


def se_kernel(X, phi: float) -> np.ndarray:
    """exp(-phi ||x_i - x_j||^2) from explicit coordinate differences."""
    X = np.asarray(X, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    return np.exp(-phi * np.einsum("ijk,ijk->ij", diff, diff))


def factor_within_delta(X, phi: float, factor) -> tuple[bool, str]:
    """||Sigma - U Lambda U'||_F <= delta with Sigma rebuilt here."""
    resid = se_kernel(X, phi) - (factor.U * factor.lam) @ factor.U.T
    fro = float(np.sqrt(np.sum(resid * resid)))
    if not fro <= factor.delta:
        return False, f"phi {phi:.4g}: ||Sigma - U L U'||_F = {fro:.3e} > delta {factor.delta:.3e}"
    return True, ""


def dense_loglik(y, Sigma, sigma2: float, tau2: float) -> float:
    n = len(y)
    L = np.linalg.cholesky(tau2 * Sigma + sigma2 * np.eye(n))
    half = np.linalg.solve(L, y)
    return -0.5 * (n * _LOG_2PI + 2.0 * float(np.log(np.diag(L)).sum()) + float(half @ half))


def loglik_matches_dense(X, y, phi_grid, factors, trace, marginal_loglik, states: int = 5):
    """``marginal_loglik`` of the exact-delta factors at states sampled from
    the chain agrees with a dense Cholesky log-likelihood."""
    bad = []
    rows = np.linspace(0, len(trace) - 1, states).astype(int)
    for i in rows:
        sigma2, tau2, k = float(trace[i, 0]), float(trace[i, 1]), int(trace[i, 2])
        got = marginal_loglik(y, factors[k], sigma2, tau2)
        ref = dense_loglik(y, se_kernel(X, float(phi_grid[k])), sigma2, tau2)
        if not abs(got - ref) <= 1e-6 * max(1.0, abs(ref)):
            bad.append(f"state {i}: loglik {got:.9f} vs dense {ref:.9f}")
    return _result(bad)


def acceptance_inside(rate: float) -> tuple[bool, str]:
    if not 0.0 < rate < 1.0:
        return False, f"acceptance rate {rate} not strictly inside (0, 1)"
    return True, ""


# ---------------------------------------------------------------------------
# calculus: closed forms in 60-digit arithmetic
# ---------------------------------------------------------------------------


def _mp():
    import mpmath

    mpmath.mp.dps = 60
    return mpmath


def _cesaro(m, a, t, tv0):
    return (1 - (1 - a) ** t) * tv0 / (a * t)


def _var_factor(m, a, t):
    """(1/t^2) sum_{j,k<t} r^|j-k| = (t + 2 r (t a - 1 + r^t) / a^2) / t^2."""
    r = 1 - a
    return (t + 2 * r * (t * a - 1 + r**t) / (a * a)) / (t * t)


def closed_forms(alpha: float, eps: float, t: int, tv0=1.0, tv0_eps=1.0, fstar=1.0) -> dict:
    """The bounds of the calculus at path length t, as mpf values.  The
    approximate chain's constant is alpha - 2 eps rounded to double, as the
    program forms it."""
    m = _mp()
    a, e, T = m.mpf(alpha), m.mpf(eps), m.mpf(t)
    ae = m.mpf(alpha - 2.0 * eps)
    f2 = m.mpf(fstar) ** 2
    out = {
        "tv_exact": _cesaro(m, a, T, m.mpf(tv0)),
        "l2_exact": 4 * f2 * _cesaro(m, a, T, m.mpf(tv0)) + f2 * _var_factor(m, a, T),
        "stationary_bias": e / a,
        "var_exact": _var_factor(m, a, T),
    }
    if eps > 0.0:
        out["var_approx"] = _var_factor(m, ae, T)
        out["tv_approx"] = e / a + _cesaro(m, ae, T, m.mpf(tv0_eps))
        out["l2_approx"] = (
            4 * f2 * _cesaro(m, ae, T, m.mpf(tv0_eps))
            + f2 * _var_factor(m, ae, T)
            + 8 * f2 * e * (1 - (1 - ae) ** T) / (T * a * ae)
            + 4 * e * e * f2 / (a * a)
        )
    return out


def brute_var_factor(alpha: float, t: int) -> float:
    """The L2 variance factor as the plain double sum (small t only)."""
    d = np.abs(np.subtract.outer(np.arange(t), np.arange(t)))
    return float(((1.0 - alpha) ** d).sum()) / (t * t)


def _close(got: float, ref) -> bool:
    ref = float(ref)
    return abs(got - ref) <= REL * max(abs(ref), 1e-300)


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r for r in rows[1:] if r]


def bounds_csv(path, alpha: float, eps: float, t_max: int = 10**5) -> tuple[bool, str]:
    """Every column of ``bounds.csv`` against the closed forms; for t <= 200
    the L2 columns also against the brute-force variance factor."""
    header, rows = _read(path)
    bad = []
    ts = [int(r[0]) for r in rows]
    if not ts or ts[0] != 1 or ts[-1] != t_max or any(b <= a for a, b in zip(ts, ts[1:])):
        bad.append(f"t column {ts[:3]}...{ts[-2:]} is not an increasing grid from 1 to {t_max}")
    for r in rows:
        t = int(r[0])
        ref = closed_forms(alpha, eps, t)
        for name, value in zip(header[1:], r[1:]):
            if not _close(float(value), ref[name]):
                bad.append(f"t={t} {name} = {value}, closed form {float(ref[name])!r}")
        if t <= 200:
            for kind, a in (("exact", alpha), ("approx", alpha - 2.0 * eps)):
                name = f"l2_{kind}"
                brute = ref[name] - ref[f"var_{kind}"] + brute_var_factor(a, t)
                if not _close(float(r[header.index(name)]), brute):
                    bad.append(f"t={t} {name} = {r[header.index(name)]}, with double sum {float(brute)!r}")
    return _result(bad)


def _floor_ok(got: int, x) -> bool:
    """got == floor(x), allowing either neighbour when x is within 1e-9 of
    an integer (the program rounds x in double precision)."""
    m = _mp()
    if got == int(m.floor(x)):
        return True
    near = m.nint(x)
    return abs(x - near) <= 1e-9 * max(abs(x), 1) and got in (int(near) - 1, int(near))


def mixtimes_csv(path) -> tuple[bool, str]:
    m = _mp()
    _, rows = _read(path)
    bad = []
    for alpha, delta, mix_t, ceiling in rows:
        ref = m.log(m.mpf(float(delta))) / m.log(1 - m.mpf(float(alpha)))
        if not _close(float(mix_t), ref):
            bad.append(f"alpha={alpha} delta={delta}: mixing time {mix_t} vs {float(ref)!r}")
        if int(ceiling) != math.ceil(float(mix_t)):
            bad.append(f"alpha={alpha} delta={delta}: ceiling {ceiling} of {mix_t}")
    return _result(bad) if rows else (False, "no rows")


SPEEDUP_FORMS = ("logarithmic", "linear", "quadratic", "exponential")


def speedup(form: str, eps: float, alpha: float):
    """s(eps) with u = 2 eps / alpha: every form is 1 at u = 0 and 100 at u = 1."""
    m = _mp()
    u = 2 * m.mpf(eps) / m.mpf(alpha)
    return {
        "linear": 1 + 99 * u,
        "quadratic": 1 + 99 * u * u,
        "logarithmic": 1 + 99 * m.log(1 + u, 2),
        "exponential": m.mpf(100) ** u,
    }[form]


def compminimax_csv(path, discrepancy: str, alpha: float, tau_points: int) -> tuple[bool, str]:
    """Each row: t_opt = floor(s(eps*) tau), the bound equals the closed
    form at (eps*, t_opt), and it is no larger than the eps = 0 bound."""
    m = _mp()
    _, rows = _read(path)
    bad = []
    if sorted({r[1] for r in rows}) != sorted(SPEEDUP_FORMS) or len(rows) != 4 * tau_points:
        bad.append(f"{len(rows)} rows over forms {sorted({r[1] for r in rows})}")
    key = "tv" if discrepancy == "tv" else "l2"
    for tau_s, form, alpha_s, eps_s, t_s, bound_s in rows:
        tau, eps, t_opt, bound = float(tau_s), float(eps_s), int(t_s), float(bound_s)
        if float(alpha_s) != alpha or not 0.0 <= eps < alpha / 2.0:
            bad.append(f"{form} tau={tau_s}: alpha {alpha_s}, eps* {eps_s} outside [0, alpha/2)")
            continue
        x = speedup(form, eps, alpha) * m.mpf(tau)
        if not (t_opt == max(1, int(m.floor(x))) or (t_opt > 1 and _floor_ok(t_opt, x))):
            bad.append(f"{form} tau={tau_s}: t_opt {t_opt} != floor(s(eps*) tau) = {float(x)!r}")
        ref = closed_forms(alpha, eps, t_opt)[f"{key}_exact" if eps == 0.0 else f"{key}_approx"]
        if not _close(bound, ref):
            bad.append(f"{form} tau={tau_s}: bound {bound_s} vs closed form {float(ref)!r}")
        at_zero = closed_forms(alpha, 0.0, max(1, math.floor(tau)))[f"{key}_exact"]
        if not bound <= float(at_zero) * (1.0 + REL):
            bad.append(f"{form} tau={tau_s}: bound {bound_s} above its eps = 0 bound {float(at_zero)!r}")
    return _result(bad)


def verify_finite(code, path) -> tuple[bool, str]:
    if code != 0:
        return False, f"verify-finite exited {code}"
    _, rows = _read(path)
    bad = [f"{name} failed (worst error {err})" for name, passed, err in rows if passed != "1"]
    if len(rows) != 5:
        bad.append(f"{len(rows)} checks, expected 5")
    return _result(bad)


def first_nonpositive_lag(x: np.ndarray, max_lag: int = 5000) -> int:
    """First lag k >= 1 at which the sample autocorrelation of ``x`` is <= 0
    (computed by FFT), or ``max_lag`` if there is none before it."""
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * len(xc))
    hit = np.flatnonzero(np.fft.irfft(f * np.conj(f))[1:max_lag] <= 0.0)
    return int(hit[0]) + 1 if hit.size else max_lag


def ess_tolerance(rho: float, t: int, window: int) -> float:
    """Relative tolerance of a truncated-autocorrelation ESS of a two-state
    chain: Z standard errors sqrt((4 M + 2) / t) of an autocorrelation sum
    truncated at lag M (Sokal's estimate).  M is the larger of ``window``,
    the lag at which the estimator stops on this path, and the lag L at
    which rho^L falls to the 1/sqrt(t) noise floor."""
    lag = max(window, math.ceil(0.5 * math.log(t) / math.log(1.0 / rho)))
    return Z * math.sqrt((4 * lag + 2) / t)


def diagnose_ess(path, samples: np.ndarray, rhos) -> tuple[bool, str]:
    """ESS of each simulated two-state path (a column of ``samples``)
    against t (1 - rho) / (1 + rho)."""
    _, rows = _read(path)
    t = samples.shape[0]
    bad = []
    if len(rows) != len(rhos):
        bad.append(f"{len(rows)} coordinates, expected {len(rhos)}")
    for j, (row, rho) in enumerate(zip(rows, rhos)):
        got = float(row[1])
        ref = t * (1.0 - rho) / (1.0 + rho)
        tol = ess_tolerance(rho, t, first_nonpositive_lag(samples[:, j]))
        if not abs(got / ref - 1.0) <= tol:
            bad.append(f"coord {row[0]}: ESS {got:.1f} vs {ref:.1f} (rho {rho:.4f}, tol {tol:.1%})")
    return _result(bad)
