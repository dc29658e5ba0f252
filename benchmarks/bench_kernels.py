"""Time the numba kernels against their pure-numpy fallbacks.

Run from the repo root:

    python3 benchmarks/bench_kernels.py

The numba path is whatever ``amcmc._kernels`` selected at import; run with
``AMCMC_DISABLE_NUMBA=1`` to confirm the fallback wiring (both columns then
time the same numpy implementation).
"""

import time

import numpy as np

from amcmc import _kernels as k
from amcmc.distributions import SeededRng


def _time(fn, *args, repeat=5):
    fn(*args)  # warm-up (triggers JIT compilation on the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    rng = SeededRng(0)
    cases = []

    xs = rng.normal(size=(1_500, 5))
    ys = rng.normal(size=(1_500, 5))
    cases.append(
        ("gauss_kernel_sum (1500^2)", k.gauss_kernel_sum, k.gauss_kernel_sum_numpy, (xs, ys, 0.5))
    )

    row_cdf = np.cumsum(np.full((8, 8), 1.0 / 8.0), axis=1)
    uniforms = rng.uniform(size=2_000_000)
    cases.append(
        ("finite_chain_path (2M steps)", k.finite_chain_path, k.finite_chain_path_numpy,
         (row_cdf, 0, uniforms))
    )

    print(f"numba active: {k.HAS_NUMBA}")
    print(f"{'kernel':<30} {'active (s)':>12} {'numpy (s)':>12} {'speedup':>9}")
    for name, active, fallback, args in cases:
        ta = _time(active, *args)
        tn = _time(fallback, *args)
        print(f"{name:<30} {ta:>12.4f} {tn:>12.4f} {tn / ta:>8.1f}x")
        out_a, out_n = active(*args), fallback(*args)
        assert np.allclose(out_a, out_n, rtol=1e-12, atol=1e-12), name


if __name__ == "__main__":
    main()
