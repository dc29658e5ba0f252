"""Grid minimization of the approximate-chain error bounds over the
approximation error epsilon, under a computational budget.

An approximation at error ``eps`` produces sample paths a factor ``s(eps)``
faster than the exact kernel, so a budget of ``tau_max`` exact-kernel steps
buys ``floor(s(eps) * tau_max)`` approximate steps.  The "compminimax"
error is the grid argmin of the chosen bound (TV or L2) at that path
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import (
    BoundInputs,
    ErgodicityParams,
    l2_bound_approx,
    l2_bound_exact,
    tv_bound_approx,
    tv_bound_exact,
    _value,
)

__all__ = [
    "SpeedupFn",
    "CompminimaxProblem",
    "speedup_eval",
    "epsilon_compminimax",
    "curve_epsilon_vs_budget",
    "CURVE_CSV_HEADER",
]

SPEEDUP_FORMS = ("logarithmic", "linear", "quadratic", "exponential")

#: Value of every speedup form at eps = alpha / 2.
_S_MAX = 100.0


@dataclass(frozen=True)
class SpeedupFn:
    """A parametric speedup curve s(eps) on [0, alpha/2].

    The four standard forms satisfy s(0) = 1 and s(alpha/2) = 100 exactly
    and are monotone nondecreasing.  The extra ``constant`` form (s == 1,
    no speedup) is a degenerate case kept for testing the optimizer.
    """

    form: str
    alpha: float

    def __post_init__(self) -> None:
        if self.form not in SPEEDUP_FORMS + ("constant",):
            raise ValueError(f"unknown speedup form {self.form!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def __call__(self, eps):
        return speedup_eval(self, eps)


def speedup_eval(fn: SpeedupFn, eps):
    """Evaluate s(eps), elementwise for an array.  With u = 2 eps / alpha
    in [0, 1]: linear 1 + 99u, quadratic 1 + 99u^2, logarithmic
    1 + 99 log2(1 + u), exponential 100^u."""
    if not np.all((0.0 <= eps) & (eps <= fn.alpha / 2.0)):
        raise ValueError(
            f"eps={eps} outside the speedup domain [0, {fn.alpha / 2.0}]"
        )
    u = 2.0 * np.asarray(eps, dtype=np.float64) / fn.alpha
    if fn.form == "linear":
        s = 1.0 + (_S_MAX - 1.0) * u
    elif fn.form == "quadratic":
        s = 1.0 + (_S_MAX - 1.0) * u * u
    elif fn.form == "logarithmic":
        s = 1.0 + (_S_MAX - 1.0) * np.log2(1.0 + u)
    elif fn.form == "exponential":
        s = np.power(_S_MAX, u)
    else:  # constant
        s = np.ones_like(u)
    return _value(s)


def _default_grid(alpha: float, n: int) -> np.ndarray:
    # keep the top end strictly below alpha/2 so alpha_eps stays positive
    return np.linspace(0.0, 0.5 * alpha * (1.0 - 1e-9), n)


@dataclass(frozen=True)
class CompminimaxProblem:
    """Inputs of one budget-constrained bound minimization."""

    discrepancy: str  # "tv" or "l2"
    alpha: float
    tau_max: float
    tv0: float = 1.0
    tv0_eps: float = 1.0
    fstar: float = 1.0
    grid_size: int = 2000

    def __post_init__(self) -> None:
        if self.discrepancy not in ("tv", "l2"):
            raise ValueError(f"discrepancy must be 'tv' or 'l2', got {self.discrepancy!r}")
        if not self.tau_max >= 1:
            raise ValueError(f"tau_max must be >= 1, got {self.tau_max}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")

    def bound_at(self, eps, t):
        """The bound at error ``eps`` and path length ``t`` (broadcasting);
        eps = 0 takes the exact chain's bound.  Each entry evaluates its own
        form only."""
        eps, t = np.broadcast_arrays(np.asarray(eps, dtype=np.float64), np.asarray(t))
        exact = eps == 0.0
        inputs = BoundInputs(t=t[exact], tv0=self.tv0, fstar=self.fstar)
        params = ErgodicityParams(self.alpha, eps[~exact])
        out = np.empty(eps.shape)
        if self.discrepancy == "tv":
            out[exact] = tv_bound_exact(self.alpha, inputs)
            out[~exact] = tv_bound_approx(params, t[~exact], self.tv0_eps)
        else:
            out[exact] = l2_bound_exact(self.alpha, inputs)
            out[~exact] = l2_bound_approx(params, t[~exact], self.tv0_eps, self.fstar)
        return _value(out)


def epsilon_compminimax(
    problem: CompminimaxProblem, fn: SpeedupFn
) -> tuple[float, int, float]:
    """Grid-argmin of the bound over eps.

    Returns (eps_c, t_opt, bound_at_opt).  Ties break toward the smallest
    eps (the first minimum), so the search is fully deterministic.
    """
    return curve_epsilon_vs_budget(problem, fn, [problem.tau_max])[0][3:]


CURVE_CSV_HEADER = ("tau_max", "form", "alpha", "eps_c", "t_opt", "bound_at_opt")


def curve_epsilon_vs_budget(
    problem_template: CompminimaxProblem,
    fn: SpeedupFn,
    tau_grid: Iterable[float],
) -> list[tuple[float, str, float, float, int, float]]:
    """One :func:`epsilon_compminimax` row per budget, the template's own
    ``tau_max`` replaced by each entry of ``tau_grid``; rows follow
    :data:`CURVE_CSV_HEADER`.  Every budget's argmin comes from one
    (budgets x eps) array of bounds."""
    taus = list(tau_grid)
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be sorted ascending")
    for tau in taus:
        if not tau >= 1:
            raise ValueError(f"tau_max must be >= 1, got {tau}")
    grid = _default_grid(problem_template.alpha, problem_template.grid_size)
    # floor(s(eps) tau), at least 1, for every budget (rows) and eps (columns)
    t = np.floor(speedup_eval(fn, grid) * np.array(taus, dtype=np.float64)[:, None])
    t = np.maximum(1, t).astype(np.int64)
    bound = problem_template.bound_at(grid, t)
    best = np.argmin(bound, axis=1)
    return [
        (tau, fn.form, problem_template.alpha, float(grid[i]), int(t[k, i]), float(bound[k, i]))
        for k, (tau, i) in enumerate(zip(taus, best.tolist()))
    ]
