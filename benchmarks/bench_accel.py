#!/usr/bin/env python3
"""Time the exhaustive subset search, the only kernel with a numba path.

Runs the numpy enumeration and, when numba is installed, the compiled one on
C(20, 10) subsets, and checks that both find the same minimum. Run as:

    PYTHONPATH=src python benchmarks/bench_accel.py

The energy evaluator and the quadrature are plain numpy; perfbench/ times
them end to end.
"""

import time

from nlhomog import _accel, make_lambda_kernel
from nlhomog.cell import build_cell_matrix


def best_time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def main():
    n, k_ones = 20, 10  # 184756 subsets
    K = build_cell_matrix(make_lambda_kernel(2.0, 1.0, 0.5), n)
    args = (K.first_row, n, k_ones, 1e-12)
    print(f"numba available: {_accel.HAVE_NUMBA}; active path: "
          f"{'numba' if _accel.USE_NUMBA else 'numpy'} (HOMOG_DISABLE_NUMBA toggles)")
    print()
    print(f"{'kernel':<38} {'numpy':>10} {'numba':>10} {'speedup':>9}  agree")
    label = f"brute force (C({n},{k_ones}) subsets)"
    r_np, t_np = best_time(_accel.brute_force_numpy, *args)
    if not _accel.HAVE_NUMBA:
        print(f"{label:<38} {t_np * 1e3:>8.1f}ms {'-':>10} {'-':>9}")
        return
    _accel.brute_force_numba(*args)  # compile outside the timer
    r_nb, t_nb = best_time(_accel.brute_force_numba, *args)
    agree = abs(r_np[0] - r_nb[0]) <= 1e-9 * max(1.0, abs(r_np[0]))
    print(f"{label:<38} {t_np * 1e3:>8.1f}ms {t_nb * 1e3:>8.1f}ms {t_np / t_nb:>8.1f}x  {agree}")


if __name__ == "__main__":
    main()
