#!/usr/bin/env python3
"""Time the exhaustive subset search against a full lexicographic scan.

The search scores one k-subset per rotation class of the cell grid; the
reference scores every k-subset in lexicographic order with the same sum.
Both run on C(20, 10) subsets, and the script checks that they return the
same energy and minimizer. Run as:

    PYTHONPATH=src python benchmarks/bench_accel.py

The energy evaluator and the quadrature are timed end to end by perfbench/.
"""

import itertools
import math
import time

import numpy as np

from nlhomog import _accel, make_lambda_kernel
from nlhomog.cell import build_cell_matrix


def lexicographic_scan(row, n, k, tie_tol, chunk=4096):
    best, best_idx = np.inf, np.arange(k)
    it = itertools.combinations(range(n), k)
    while block := list(itertools.islice(it, chunk)):
        idx = np.array(block, dtype=np.int64)
        s = np.zeros(len(block))
        for a in range(k):
            for b in range(k):
                s += row[(idx[:, b] - idx[:, a]) % n]
        for pos in np.nonzero(s < best - tie_tol)[0]:
            if s[pos] < best - tie_tol:
                best, best_idx = float(s[pos]), idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)


def best_time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def main():
    n, k_ones = 20, 10
    label = f"C({n},{k_ones}) = {math.comb(n, k_ones)} subsets"
    print(f"{label:<40} {'scan':>10} {'classes':>10} {'speedup':>9}  agree")
    for alpha, beta in ((1.0, 2.0), (2.0, 1.0)):
        K = build_cell_matrix(make_lambda_kernel(alpha, beta, 0.5), n)
        args = (K.first_row, n, k_ones, 1e-12)
        (e_ref, i_ref), t_ref = best_time(lexicographic_scan, *args)
        (e_new, i_new), t_new = best_time(_accel.brute_force_search, *args)
        agree = e_ref == e_new and np.array_equal(i_ref, i_new)
        name = f"alpha={alpha:g}, beta={beta:g}, lam=0.5"
        print(f"{name:<40} {t_ref * 1e3:>8.1f}ms {t_new * 1e3:>8.1f}ms "
              f"{t_ref / t_new:>8.1f}x  {agree}")
        if not agree:
            raise SystemExit(f"{name}: search {e_new!r} {i_new} != scan {e_ref!r} {i_ref}")


if __name__ == "__main__":
    main()
