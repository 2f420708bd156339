import math
import subprocess
import sys

import numpy as np
import pytest

from nlhomog import (
    PeriodicStepKernel,
    StepFunction,
    TripleWellPotential,
    _accel,
    make_lambda_kernel,
)
from nlhomog.cell import build_cell_matrix
from nlhomog.energy import _level_structure, evaluate, evaluate_quadrature, rect_integral

needs_numba = pytest.mark.skipif(not _accel.HAVE_NUMBA, reason="numba not installed")


def _random_kernel(rng):
    nseg = int(rng.integers(1, 6))
    inner = np.sort(rng.uniform(0.02, 0.98, nseg - 1))
    inner = inner[np.concatenate([[True], np.diff(inner) > 1e-3])] if inner.size else inner
    bp = np.concatenate([[0.0], inner])
    return PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))


def _random_inv_eps(rng):
    """Whole or non-whole 1/eps in [1, 2000]."""
    if rng.random() < 0.5:
        return float(rng.integers(1, 2001))
    return float(rng.uniform(1.0, 2000.0))


def _rect_sum(u, p, k, eps):
    """O(P^2) oracle: exact rectangle integral of every interval pair."""
    wl, level_idx = _level_structure(u, p, 1e-12)
    ends = u.endpoints
    terms = []
    for i in range(u.values.size):
        for j in range(u.values.size):
            w = wl[level_idx[i], level_idx[j]]
            if w != 0.0:
                terms.append(w * rect_integral(k, eps, ends[i], ends[i + 1], ends[j], ends[j + 1]))
    return math.fsum(terms)


def _pair_args(u, p, k, eps):
    wl, level_idx = _level_structure(u, p, 1e-12)
    t = k.table
    return (u.endpoints, u.lengths, level_idx, wl, k.breakpoints, t.q0, t.q1, t.q2, t.mean, eps)


class TestPairEnergyOracle:
    def test_matches_rectangle_sum(self):
        rng = np.random.default_rng(20261017)
        levels = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 0.25])
        for case in range(40):
            k = _random_kernel(rng)
            P = int(rng.integers(1, 201)) if case % 8 == 0 else int(rng.integers(1, 41))
            L = int(rng.integers(1, 7))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, P - 1))])
            bp = bp[np.concatenate([[True], np.diff(bp) > 0])]
            z = float(rng.uniform(-1.0, 1.0))
            u = StepFunction(bp, z + rng.choice(levels[:L], bp.size))
            p = TripleWellPotential(cap=float(rng.uniform(1.0, 20.0)))
            eps = 1.0 / _random_inv_eps(rng)
            fast = _accel.pair_energy(*_pair_args(u, p, k, eps))
            oracle = _rect_sum(u, p, k, eps)
            assert abs(fast - oracle) <= 1e-13 * abs(oracle), (case, fast, oracle)


def _direct_quadrature(centers, lengths, iu, w, k, eps):
    """O(C^2) oracle: the midpoint sum with the weight evaluated pair by pair."""
    a = k.eval((centers[:, None] - centers[None, :]) / eps)
    return float(lengths @ ((a * w[iu[:, None], iu[None, :]]) @ lengths))


class TestQuadratureOracle:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            k = _random_kernel(rng)
            C = int(rng.integers(2, 601))
            centers = np.sort(rng.uniform(0.0, 1.0, C))
            lengths = rng.uniform(0.5, 1.5, C)
            lengths /= lengths.sum()
            L = int(rng.integers(1, 4))
            iu = rng.integers(0, L, C)
            w = rng.uniform(0.0, 5.0, (L, L))
            w = 0.5 * (w + w.T)
            eps = 1.0 / _random_inv_eps(rng)
            fast = _accel.quadrature_energy(centers, lengths, iu, w, k.breakpoints, k.values, eps)
            direct = _direct_quadrature(centers, lengths, iu, w, k, eps)
            assert abs(fast - direct) <= 1e-12 * abs(direct), (case, fast, direct)

    def test_phases_one_ulp_apart_are_each_counted_once(self):
        # 0.1 and the next float share the same float value of phase - 1;
        # the rounded phases keep every copy in exactly one window (the
        # weight has no jump at 0, so the pair's value is not a tie)
        k = PeriodicStepKernel([0.0, 0.3, 0.7], [2.0, 3.0, 2.0])
        centers = np.array([0.1, np.nextafter(0.1, 1.0)])
        lengths = np.array([0.5, 0.5])
        iu = np.zeros(2, dtype=np.int64)
        w = np.ones((1, 1))
        fast = _accel.quadrature_energy(centers, lengths, iu, w, k.breakpoints, k.values, 1.0)
        assert fast == pytest.approx(_direct_quadrature(centers, lengths, iu, w, k, 1.0), abs=1e-15)

    def test_jump_ties_stay_within_bound(self):
        # On the n = 480 grid every center difference is a multiple of 1/480
        # and eps/4 = 6/480, so many differences land exactly on the jumps of
        # the lam = 1/2 weight (at 1/4 and 3/4). Rounding breaks those ties
        # differently in the two sums; each must stay inside the bound.
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        eps, n = 0.05, 480
        u = StepFunction([0.0, 0.3, 0.55], [0.0, 1.0, 0.0])
        p = TripleWellPotential()
        quad = evaluate_quadrature(u, p, k, eps, n=n)
        exact = evaluate(u, p, k, eps).value
        edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1), u.breakpoints]))
        lengths = np.diff(edges)
        centers = edges[:-1] + 0.5 * lengths
        t = (centers[:, None] - centers[None, :]) / eps
        frac = t - np.floor(t)
        assert np.count_nonzero(np.isclose(frac, 0.25, rtol=0.0, atol=1e-9)) > 0
        wl, level_idx = _level_structure(u, p, 1e-12)
        iu = level_idx[np.searchsorted(u.breakpoints, centers, side="right") - 1]
        direct = _direct_quadrature(centers, lengths, iu, wl, k, eps)
        assert abs(quad.value - exact) <= quad.bound
        assert abs(direct - exact) <= quad.bound


@needs_numba
class TestPathAgreement:
    def test_brute_force_same_minimizer(self):
        K = build_cell_matrix(make_lambda_kernel(2.0, 1.0, 0.5), 12)
        tol = 1e-12
        ea, ia = _accel.brute_force_numba(K.first_row, 12, 5, tol)
        eb, ib = _accel.brute_force_numpy(K.first_row, 12, 5, tol)
        assert abs(ea - eb) <= 1e-10
        assert np.array_equal(np.sort(ia), np.sort(ib))


class TestEnvFlag:
    def test_disable_flag_forces_numpy_path(self):
        code = (
            "import os; os.environ['HOMOG_DISABLE_NUMBA']='1'; "
            "from nlhomog import _accel; print(_accel.USE_NUMBA)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_numpy_path_runs_evaluate(self):
        code = (
            "import os; os.environ['HOMOG_DISABLE_NUMBA']='1'; "
            "import nlhomog as nl; "
            "k = nl.make_lambda_kernel(1,2,0.5); "
            "u = nl.oscillating_profile(-0.5, nl.optimal_profile(0.5), 1/64); "
            "print(abs(nl.evaluate(u, nl.TripleWellPotential(), k, 1/64).value - 0.625) < 1e-10)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "True"
