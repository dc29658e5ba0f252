"""Approximate-MCMC error calculus: Doeblin-based TV/L2 bounds, budget-
optimal approximation error, exact finite-chain oracles, three approximate
samplers, and convergence diagnostics."""

from .bounds import (
    BoundInputs,
    ErgodicityParams,
    clamp_tv,
    l2_bound_approx,
    l2_bound_exact,
    mixing_time_bound,
    stationary_bias_bound,
    tv_bound_approx,
    tv_bound_exact,
    variance_factor,
)
from .compminimax import (
    CompminimaxProblem,
    SpeedupFn,
    curve_epsilon_vs_budget,
    epsilon_compminimax,
    speedup_eval,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "ErgodicityParams",
    "clamp_tv",
    "l2_bound_approx",
    "l2_bound_exact",
    "mixing_time_bound",
    "stationary_bias_bound",
    "tv_bound_approx",
    "tv_bound_exact",
    "variance_factor",
    "CompminimaxProblem",
    "SpeedupFn",
    "curve_epsilon_vs_budget",
    "epsilon_compminimax",
    "speedup_eval",
    "SeededRng",
    "__version__",
]


def __getattr__(name: str):
    # SeededRng subclasses numpy's Generator, so importing it loads
    # numpy.random, which numpy 2 otherwise loads on first use: imported on
    # first access (PEP 562), a subcommand that draws nothing never pays it
    if name == "SeededRng":
        from .distributions import SeededRng

        return SeededRng
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
