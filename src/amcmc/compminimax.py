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

from .bounds import ErgodicityParams, _value, l2_bound_approx, tv_bound_approx

# Not called here (eps = 0 is the exact bound), but importable from this
# module: the benchmark's traced calculus round (perfbench/cli_launch.py)
# wraps all four bounds by their names here.
from .bounds import l2_bound_exact, tv_bound_exact  # noqa: F401

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
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all((0.0 <= eps) & (eps <= fn.alpha / 2.0)):
        low, high = eps.min(), eps.max()
        raise ValueError(
            f"eps={low if not low >= 0.0 else high} outside the speedup domain "
            f"[0, {fn.alpha / 2.0}]"
        )
    u = 2.0 * eps / fn.alpha
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


@dataclass(frozen=True)
class CompminimaxProblem:
    """Inputs of a budget-constrained bound minimization, for any budget."""

    discrepancy: str  # "tv" or "l2"
    alpha: float
    tv0: float = 1.0
    tv0_eps: float = 1.0
    fstar: float = 1.0
    grid_size: int = 2000

    def __post_init__(self) -> None:
        if self.discrepancy not in ("tv", "l2"):
            raise ValueError(f"discrepancy must be 'tv' or 'l2', got {self.discrepancy!r}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")

    def bound_at(self, eps, t):
        """The approximate bound at error ``eps`` and path length ``t``
        (broadcasting).  At eps = 0 it is the exact chain's bound, started
        at ``tv0`` rather than ``tv0_eps``."""
        eps = np.asarray(eps, dtype=np.float64)
        params = ErgodicityParams(self.alpha, eps)
        tv0 = np.where(eps == 0.0, self.tv0, self.tv0_eps)
        if self.discrepancy == "tv":
            return tv_bound_approx(params, t, tv0)
        return l2_bound_approx(params, t, tv0, self.fstar)


def epsilon_compminimax(
    problem: CompminimaxProblem, form: str, tau_max: float
) -> tuple[float, int, float]:
    """Grid-argmin of the bound over eps under a budget of ``tau_max``
    exact-kernel steps, with the speedup ``SpeedupFn(form, problem.alpha)``.

    Returns (eps_c, t_opt, bound_at_opt).  Ties break toward the smallest
    eps (the first minimum), so the search is fully deterministic.
    """
    return curve_epsilon_vs_budget(problem, form, [tau_max])[0][3:]


CURVE_CSV_HEADER = ("tau_max", "form", "alpha", "eps_c", "t_opt", "bound_at_opt")

#: Bound entries evaluated at once: the budgets go through the search in
#: blocks of max(1, _BLOCK_CELLS // grid_size) rows, so memory does not
#: grow with the number of budgets.
_BLOCK_CELLS = 1 << 16


def curve_epsilon_vs_budget(
    problem: CompminimaxProblem,
    form: str,
    tau_grid: Iterable[float],
) -> list[tuple[float, str, float, float, int, float]]:
    """One :func:`epsilon_compminimax` row per budget of ``tau_grid``; rows
    follow :data:`CURVE_CSV_HEADER`.  Each block of budgets takes its
    argmins from one (budgets x eps) array of bounds."""
    taus = list(tau_grid)
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be sorted ascending")
    for tau in taus:
        if not tau >= 1:
            raise ValueError(f"tau_max must be >= 1, got {tau}")
    # keep the top end strictly below alpha/2 so alpha_eps stays positive
    grid = np.linspace(0.0, 0.5 * problem.alpha * (1.0 - 1e-9), problem.grid_size)
    s = speedup_eval(SpeedupFn(form, problem.alpha), grid)
    tau_rows = np.array(taus, dtype=np.float64)[:, None]
    eps_c, t_opt, b_opt = np.empty(len(taus)), np.empty(len(taus), np.int64), np.empty(len(taus))
    step = max(1, _BLOCK_CELLS // grid.size)
    for lo in range(0, len(taus), step):
        # floor(s(eps) tau), at least 1, for each budget (rows) and eps (columns)
        t = np.maximum(1, np.floor(s * tau_rows[lo : lo + step])).astype(np.int64)
        bound = problem.bound_at(grid, t)
        best = np.argmin(bound, axis=1)[:, None]
        eps_c[lo : lo + step] = grid[best[:, 0]]
        t_opt[lo : lo + step] = np.take_along_axis(t, best, axis=1)[:, 0]
        b_opt[lo : lo + step] = np.take_along_axis(bound, best, axis=1)[:, 0]
        del t, bound  # so that one block's arrays are alive at a time
    return [
        (tau, form, problem.alpha, e, k, b)
        for tau, e, k, b in zip(taus, eps_c.tolist(), t_opt.tolist(), b_opt.tolist())
    ]
