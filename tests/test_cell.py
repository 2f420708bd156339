import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

import nlhomog
from nlhomog import (
    CellProfile,
    PeriodicStepKernel,
    ResourceLimitError,
    build_cell_matrix,
    cell_energy,
    gamma_closed_form,
    integrate,
    make_lambda_kernel,
    optimal_profile,
    solve_brute_force,
    solve_relaxed,
)
from nlhomog import _accel, cell, util
from nlhomog.cell import CellKernelMatrix, _spectral_norm, is_cyclic_arc, rotation_classes


def _dense(K):
    """The full circulant matrix: entry (i, j) is first_row[(j - i) mod n]."""
    n = K.n
    return K.first_row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _all_rotation_arcs(K, k_ones):
    """Slow oracle of the arcs-only search: score the arc at every rotation,
    keep a rotation only when it is lower by more than the tie tolerance.
    Returns (energy, sorted indices, iterations)."""
    n, row = K.n, K.first_row
    tie_tol = 1e-12 * max(1.0, k_ones * k_ones * float(np.max(np.abs(row))))
    raw, idx = math.inf, np.zeros(0, dtype=np.int64)
    if k_ones == 0:
        raw = 0.0
    else:
        for r in range(n):
            cand = (r + np.arange(k_ones)) % n
            d = (cand[None, :] - cand[:, None]) % n
            s = float(np.sum(row[d]))
            if s < raw - tie_tol:
                raw, idx = s, cand
    t = k_ones / n
    energy = 2.0 * (raw / (n * n)) - 2.0 * K.abar * t + K.abar
    return float(energy), np.sort(idx).tolist(), n if k_ones else 1


PARAM_GRID = [
    (1.0, 2.0, 0.5),
    (1.0, 2.0, 0.25),
    (2.0, 1.0, 0.5),
    (0.7, 3.1, 0.37),
    (1.0, 2.0, 0.75),  # lam above one half: same three-branch formula applies
    (3.0, 0.5, 0.62),
]


class TestGammaClosedForm:
    def test_reference_values(self):
        assert gamma_closed_form(1.0, 2.0, 0.5, 0.0) == pytest.approx(1.5, abs=1e-15)
        assert gamma_closed_form(1.0, 2.0, 0.5, 0.5) == pytest.approx(0.625, abs=1e-15)
        assert gamma_closed_form(1.0, 2.0, 0.5, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_equal_weights_collapse_to_single_quadratic(self):
        c = 1.3
        for t in np.linspace(0.0, 1.0, 21):
            expected = 2.0 * c * (t * t - t) + c
            assert gamma_closed_form(c, c, 0.4, t) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta,lam", PARAM_GRID)
    def test_branch_continuity(self, alpha, beta, lam):
        for bp in (lam / 2.0, 1.0 - lam / 2.0):
            left = gamma_closed_form(alpha, beta, lam, bp - 1e-13)
            right = gamma_closed_form(alpha, beta, lam, bp + 1e-13)
            assert abs(left - right) <= 1e-12

    @pytest.mark.parametrize("alpha,beta,lam", PARAM_GRID)
    def test_symmetry_under_reflection(self, alpha, beta, lam):
        for t in np.linspace(0.0, 1.0, 101):
            assert gamma_closed_form(alpha, beta, lam, t) == pytest.approx(
                gamma_closed_form(alpha, beta, lam, 1.0 - t), abs=1e-12
            )

    @pytest.mark.parametrize("alpha,beta,lam", PARAM_GRID)
    def test_endpoints_equal_mean(self, alpha, beta, lam):
        abar = lam * alpha + (1.0 - lam) * beta
        assert gamma_closed_form(alpha, beta, lam, 0.0) == pytest.approx(abar, abs=1e-14)
        assert gamma_closed_form(alpha, beta, lam, 1.0) == pytest.approx(abar, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta,lam", PARAM_GRID)
    def test_argmin_at_one_half(self, alpha, beta, lam):
        ts = np.linspace(0.0, 1.0, 2001)
        vals = [gamma_closed_form(alpha, beta, lam, t) for t in ts]
        assert abs(ts[int(np.argmin(vals))] - 0.5) <= ts[1] - ts[0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_closed_form(-1.0, 2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            gamma_closed_form(1.0, 2.0, 1.2, 0.5)
        with pytest.raises(ValueError):
            gamma_closed_form(1.0, 2.0, 0.5, 1.5)


class TestOptimalProfile:
    def test_empty_at_zero(self):
        assert optimal_profile(0.0) == []

    def test_boundary_arcs(self):
        assert optimal_profile(0.5) == [(0.0, 0.25), (0.75, 1.0)]

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.93, 1.0])
    def test_total_length(self, t):
        arcs = optimal_profile(t)
        assert sum(b - a for a, b in arcs) == pytest.approx(t, abs=1e-15)


class TestCellMatrix:
    def test_over_cap_grid_refused_before_any_entry(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("entry computed before the cap check")

        monkeypatch.setattr(cell, "rect_integral", no_work)
        n = util.MAX_INTERVALS + 1
        with pytest.raises(ResourceLimitError) as err:
            build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), n)
        assert str(err.value) == f"build_cell_matrix: {n} cells exceed the cap {util.MAX_INTERVALS}"

    def test_cap_is_read_at_call_time(self, monkeypatch):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        monkeypatch.setattr(util, "MAX_INTERVALS", 16)
        assert build_cell_matrix(k, 16).n == 16
        with pytest.raises(ResourceLimitError, match=r"^build_cell_matrix: 17 cells exceed the cap 16$"):
            build_cell_matrix(k, 17)

    def test_constant_kernel_entries(self):
        K = build_cell_matrix(PeriodicStepKernel([0.0], [1.7]), 8)
        assert np.allclose(K.first_row, 1.7, atol=1e-14)

    def test_row_mean_equals_kernel_mean(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        K = build_cell_matrix(k, 4)
        assert np.sum(K.first_row) / 4 == pytest.approx(1.5, abs=1e-13)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_total_integral_identity(self, n):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        K = build_cell_matrix(k, n)
        ones = np.ones(n)
        assert ones @ K.matvec(ones) / (n * n) == pytest.approx(integrate(k), abs=1e-12)

    def test_entries_positive(self):
        K = build_cell_matrix(make_lambda_kernel(0.3, 2.0, 0.25), 32)
        assert np.all(K.first_row > 0)

    def test_symmetric_kernel_gives_symmetric_row(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.4), 16)
        for j in range(1, 16):
            assert K.first_row[j] == pytest.approx(K.first_row[16 - j], abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 12, 17, 128, 256, 1023, 1024, 1025])
    def test_matvec_matches_dense_matrix(self, n):
        # the FFT against the full circulant matrix, for the rows of an
        # asymmetric weight and for signed random rows
        rng = np.random.default_rng(n)
        k = PeriodicStepKernel([0.0, 0.2, 0.5], [1.0, 3.0, 2.0])
        for K in (build_cell_matrix(k, n),
                  CellKernelMatrix(n=n, first_row=rng.standard_normal(n), abar=0.0)):
            for x in (rng.uniform(size=n), rng.standard_normal(n), np.arange(n, dtype=float)):
                # every |y_i| is at most sum|row| * max|x|
                scale = np.sum(np.abs(K.first_row)) * np.max(np.abs(x))
                assert np.max(np.abs(K.matvec(x) - _dense(K) @ x)) <= 1e-14 * scale

    def test_cached_operators_match_uncached_formulas_bit_for_bit(self):
        # the formulas matvec and _spectral_norm evaluated per call before
        # their operator was cached on the matrix
        def fft(K, x):
            return np.fft.ifft(np.conj(np.fft.fft(K.first_row)) * np.fft.fft(x)).real

        def norm(K):
            return float(np.max(np.abs(np.fft.fft(K.first_row)))) / (K.n * K.n)

        rng = np.random.default_rng(5)
        k = PeriodicStepKernel([0.0, 0.2, 0.5], [1.0, 3.0, 2.0])
        matrices = [build_cell_matrix(k, n) for n in (2, 3, 17, 256, 1023, 1024, 1025)]
        matrices += [CellKernelMatrix(n=n, first_row=rng.standard_normal(n), abar=0.0)
                     for n in (2, 64, 1023, 1024, 2048)]
        for K in matrices:
            n = K.n
            assert _spectral_norm(K) == norm(K), n
            for _ in range(3):  # repeated calls on one matrix
                x = rng.standard_normal(n)
                assert np.array_equal(K.matvec(x), fft(K, x)), n
            assert _spectral_norm(K) == norm(K), n
            assert K.conj_spectrum is K.conj_spectrum

    def test_spectral_norm_equals_largest_eigenvalue(self):
        kernels = [
            make_lambda_kernel(1.0, 2.0, 0.5),
            make_lambda_kernel(3.0, 0.5, 0.62),
            PeriodicStepKernel([0.0, 0.2, 0.5], [1.0, 3.0, 2.0]),  # asymmetric
            PeriodicStepKernel([0.0], [1.7]),
        ]
        # a positive kernel's largest eigenvalue is its row sum; signed random
        # rows put the largest one at a complex frequency
        rng = np.random.default_rng(7)
        matrices = [build_cell_matrix(k, n) for k in kernels for n in (2, 7, 16, 64, 129)]
        matrices += [CellKernelMatrix(n=n, first_row=rng.standard_normal(n), abar=0.0)
                     for n in (2, 3, 7, 16, 64, 129) for _ in range(3)]
        for K in matrices:
            n = K.n
            exact = float(np.max(np.abs(np.linalg.eigvals(_dense(K))))) / (n * n)
            assert _spectral_norm(K) == pytest.approx(exact, rel=1e-12, abs=0.0), K.first_row


class TestCellEnergy:
    def test_flat_profiles(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        K = build_cell_matrix(k, 32)
        abar = integrate(k)
        assert cell_energy(K, np.zeros(32)) == pytest.approx(abar, abs=1e-12)
        assert cell_energy(K, np.ones(32)) == pytest.approx(abar, abs=1e-12)
        assert cell_energy(K, np.full(32, 0.5)) == pytest.approx(abar / 2.0, abs=1e-12)

    def test_rotation_invariance(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        phi = CellProfile.from_arcs(optimal_profile(0.25), 16).values
        base = cell_energy(K, phi)
        for r in range(1, 16):
            assert cell_energy(K, np.roll(phi, r)) == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        with pytest.raises(ValueError):
            cell_energy(K, np.zeros(8))

    def test_aligned_discretization_is_exact(self):
        # arc endpoints on the grid: the discrete energy IS the continuum value.
        # lam = 0.37 puts the weight's breakpoints off the grid, where point
        # samples a(j/n) in place of exact cell-pair integrals would be wrong
        for lam in (0.5, 0.37):
            target = gamma_closed_form(1.0, 2.0, lam, 0.5)
            for n in (64, 128, 256, 512):
                K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, lam), n)
                phi = CellProfile.from_arcs(optimal_profile(0.5), n)
                assert abs(cell_energy(K, phi) - target) <= 1e-12

    def test_snap_discretization_halves_error_with_n(self):
        # off-grid arc endpoints (t = 1/3): indicators snapped by majority
        # coverage converge at first order, so the error halves when n doubles
        target = gamma_closed_form(1.0, 2.0, 0.5, 1.0 / 3.0)
        errs = {}
        for n in (64, 128, 256, 512):
            K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), n)
            phi = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), n).values >= 0.5
            errs[n] = abs(cell_energy(K, phi) - target)
        for n in (64, 128, 256):
            assert 1.7 <= errs[n] / errs[2 * n] <= 2.3

    def test_mass_preserving_discretization_is_second_order(self):
        target = gamma_closed_form(1.0, 2.0, 0.5, 1.0 / 3.0)
        errs = {}
        for n in (64, 256):
            K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), n)
            phi = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), n)
            errs[n] = abs(cell_energy(K, phi) - target)
        assert errs[64] / errs[256] == pytest.approx(16.0, rel=0.3)


class TestCellProfile:
    def test_from_arcs_mean(self):
        p = CellProfile.from_arcs(optimal_profile(0.5), 16)
        assert p.mean == pytest.approx(0.5, abs=1e-15)

    def test_majority_snap_keeps_the_cells_centred_in_an_arc(self):
        # the t = 1/3 arc is [0, 1/6) and [5/6, 1); its cut cells are 2/3 covered
        v = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), 16).values
        centres = (np.arange(16) + 0.5) / 16
        assert np.array_equal(v >= 0.5, (centres < 1.0 / 6.0) | (centres > 5.0 / 6.0))

    def test_value_range_validation(self):
        with pytest.raises(ValueError):
            CellProfile.from_values([0.5, 1.4])

    @pytest.mark.parametrize("n", [2400, 3000])
    @pytest.mark.parametrize(
        "arcs",
        [
            [(0.3, 0.7)],
            optimal_profile(0.4),
            [(j / 5, j / 5 + 0.1) for j in range(5)],
            [(0.12345, 0.6789)],
        ],
        ids=["1-arc", "2-arc", "5-arc", "off-grid"],
    )
    def test_from_arcs_cells_inside_arcs_are_exactly_one(self, n, arcs):
        # at these n a cell's width times n exceeds 1 by more than the 1e-15
        # range check; every other cell keeps its coverage bit for bit
        p = CellProfile.from_arcs(arcs, n)
        edges = np.arange(n + 1) / n
        inside = np.zeros(n, dtype=bool)
        cover = np.zeros(n)
        for a, b in arcs:
            inside |= (edges[:-1] >= a) & (edges[1:] <= b)
            cover += np.maximum(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0.0) * n
        assert inside.any() and np.all(p.values[inside] == 1.0)
        assert np.array_equal(p.values[~inside], cover[~inside])
        assert p.mean == pytest.approx(sum(b - a for a, b in arcs), abs=1e-12)


class TestSolveRelaxed:
    def test_constant_kernel_any_feasible_is_optimal(self):
        K = build_cell_matrix(PeriodicStepKernel([0.0], [1.3]), 64)
        res = solve_relaxed(K, 0.3)
        expected = 2.0 * 1.3 * (0.09 - 0.3) + 1.3
        assert res.energy == pytest.approx(expected, abs=1e-9)
        assert res.constraint_residual <= 1e-10

    def test_finds_cell_minimum(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 256)
        res = solve_relaxed(K, 0.5)
        assert abs(res.energy - 0.625) <= 5e-3
        assert res.constraint_residual <= 1e-10
        assert res.converged

    def test_degenerate_fraction_forced(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 64)
        res = solve_relaxed(K, 0.0)
        assert res.energy == pytest.approx(1.5, abs=1e-12)
        assert np.all(res.profile.values == 0.0)

    def test_inverted_kernel_stays_within_known_bounds(self):
        # expensive short range: the relaxed minimum sits strictly between the
        # spectral lower bound and the best arc energy
        K = build_cell_matrix(make_lambda_kernel(2.0, 1.0, 0.5), 64)
        res = solve_relaxed(K, 0.5)
        assert 0.69 <= res.energy <= 0.875 + 1e-9

    def test_t_validation(self, monkeypatch):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)

        def no_spectrum(K):
            raise AssertionError("spectrum taken before t was checked")

        # optimal_profile, which builds the arc start, is the one t check
        monkeypatch.setattr(cell, "_spectral_norm", no_spectrum)
        for t in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
                solve_relaxed(K, t)

    def test_one_matvec_per_step(self, monkeypatch):
        # every start projects once and scores its start; every step projects
        # once and reuses the energy's matvec as the next gradient
        calls = {"matvec": 0, "project": 0}
        matvec, project = CellKernelMatrix.matvec, cell.project_box_mean

        def counting_matvec(self, v):
            calls["matvec"] += 1
            return matvec(self, v)

        def counting_project(x, t):
            calls["project"] += 1
            return project(x, t)

        monkeypatch.setattr(CellKernelMatrix, "matvec", counting_matvec)
        monkeypatch.setattr(cell, "project_box_mean", counting_project)
        K = build_cell_matrix(make_lambda_kernel(1.3, 0.8, 0.4), 64)
        res = solve_relaxed(K, 0.3)
        assert res.converged and calls["project"] > 3 + res.iterations
        assert calls["matvec"] == calls["project"]

    def test_step_cap_reports_no_convergence(self, monkeypatch):
        K = build_cell_matrix(make_lambda_kernel(1.3, 0.8, 0.4), 64)
        needed = solve_relaxed(K, 0.3)
        assert needed.converged
        # the reported start needs needed.iterations steps; one fewer stops it
        monkeypatch.setattr(cell, "RELAXED_MAX_ITER", needed.iterations - 1)
        capped = solve_relaxed(K, 0.3)
        assert not capped.converged
        assert capped.energy >= needed.energy


def _exact_box_mean_projection(x, t):
    """clip(x - tau, 0, 1) whose mean is t, with tau found by bisection: the
    mean is non-increasing in tau, 1 at min(x) - 1 and 0 at max(x)."""
    lo, hi = float(np.min(x)) - 1.0, float(np.max(x))
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.mean(np.clip(x - tau, 0.0, 1.0)) > t:
            lo = tau
        else:
            hi = tau
    return np.clip(x - 0.5 * (lo + hi), 0.0, 1.0)


def _assert_is_projection(y, x, t):
    """y is the projection of clip(x, 0, 1), to 1e-12 in every value."""
    exact = _exact_box_mean_projection(np.clip(x, 0.0, 1.0), t)
    assert np.max(np.abs(y - exact)) <= 1e-12


class TestProjectBoxMean:
    @pytest.mark.parametrize("n", [8, 64, 257])
    def test_inside_box_equals_exact_projection(self, n):
        rng = np.random.default_rng(n)
        for t in (0.1, 0.37, 0.5, 0.9):
            x = rng.uniform(0.0, 1.0, n)
            y, ok = cell.project_box_mean(x, t)
            assert ok
            _assert_is_projection(y, x, t)

    @pytest.mark.parametrize("n", [8, 64, 257])
    def test_any_input_lands_in_the_set(self, n):
        # outside the box the result is the projection of clip(x, 0, 1)
        rng = np.random.default_rng(100 + n)
        for t in (0.05, 0.37, 0.5, 0.95):
            for scale in (1.0, 3.0, 50.0):
                x = rng.normal(0.5, scale, n)
                y, ok = cell.project_box_mean(x, t)
                assert ok
                assert np.all((y >= 0.0) & (y <= 1.0))
                assert abs(np.mean(y) - t) <= 1e-12
                _assert_is_projection(y, x, t)

    def test_degenerate_fractions_return_corners(self):
        x = np.random.default_rng(7).normal(0.5, 2.0, 16)
        for t, corner in ((0.0, 0.0), (1.0, 1.0)):
            y, ok = cell.project_box_mean(x, t)
            assert ok
            assert np.all(y == corner)

    def test_clipped_mean_already_t_comes_back_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (5, 64, 1000):
            x = rng.normal(0.5, 0.7, n)
            t = float(np.mean(np.clip(x, 0.0, 1.0)))
            y, _ = cell.project_box_mean(x, t)
            assert np.array_equal(y, np.clip(x, 0.0, 1.0))

    def test_indicator_is_fixed_at_its_mean(self):
        # k = 6 ones in n = 16 cells: at t = k/n the indicator is fixed; below
        # it the ones share n*t, above it the zeros share n*t - k
        n, k = 16, 6
        x = np.zeros(n)
        x[[0, 3, 4, 9, 10, 11]] = 1.0
        y, _ = cell.project_box_mean(x, k / n)
        assert np.array_equal(y, x)
        for t in (0.1, 0.3, 0.5, 0.9):
            y, _ = cell.project_box_mean(x, t)
            expected = np.where(x == 1.0, min(n * t / k, 1.0), max((n * t - k) / (n - k), 0.0))
            assert np.max(np.abs(y - expected)) <= 1e-15

    @pytest.mark.parametrize("c, t", [(0.2, 0.7), (0.9, 0.3), (-4.0, 0.6), (5.0, 0.01)])
    def test_equal_values_shift_to_t(self, c, t):
        y, _ = cell.project_box_mean(np.full(12, c), t)
        assert np.max(np.abs(y - t)) <= 1e-15

    def test_two_cells(self):
        for x, t, expected in (([0.9, 0.1], 0.3, [0.6, 0.0]), ([0.0, 1.0], 0.75, [0.5, 1.0]),
                               ([2.0, -1.0], 0.5, [1.0, 0.0]), ([0.3, 0.3], 0.8, [0.8, 0.8])):
            y, _ = cell.project_box_mean(np.array(x), t)
            assert np.max(np.abs(y - expected)) <= 1e-15
            _assert_is_projection(y, np.array(x), t)

    @pytest.mark.parametrize("t", [1e-9, 1.0 - 1e-9])
    def test_fractions_next_to_the_corners(self, t):
        rng = np.random.default_rng(3)
        for x in (rng.uniform(0.0, 1.0, 100), rng.normal(0.5, 2.0, 100)):
            y, _ = cell.project_box_mean(x, t)
            assert np.all((y >= 0.0) & (y <= 1.0))
            assert abs(np.mean(y) - t) <= 1e-15
            _assert_is_projection(y, x, t)

    def test_large_grid(self):
        rng = np.random.default_rng(4096)
        for t in (0.02, 0.438, 0.97):
            x = rng.normal(0.5, 0.6, 4096)
            y, _ = cell.project_box_mean(x, t)
            assert abs(np.mean(y) - t) <= 1e-13
            _assert_is_projection(y, x, t)


class TestBruteForce:
    def test_arc_optimal_for_cheap_short_range(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        r_all = solve_brute_force(K, 8, mode="all_subsets")
        r_arc = solve_brute_force(K, 8, mode="arcs_only")
        assert r_all.energy == pytest.approx(0.625, abs=1e-12)
        assert r_arc.energy == pytest.approx(0.625, abs=1e-12)
        assert is_cyclic_arc(r_all.extras["indices"], 16)

    def test_empty_subset(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        res = solve_brute_force(K, 0)
        assert res.energy == pytest.approx(1.5, abs=1e-13)

    def test_constant_kernel_all_subsets_tie(self):
        K = build_cell_matrix(PeriodicStepKernel([0.0], [1.3]), 12)
        t = 5.0 / 12.0
        expected = 2.0 * 1.3 * (t * t - t) + 1.3
        r_all = solve_brute_force(K, 5, mode="all_subsets")
        r_arc = solve_brute_force(K, 5, mode="arcs_only")
        assert r_all.energy == pytest.approx(expected, abs=1e-12)
        assert r_arc.energy == pytest.approx(expected, abs=1e-12)

    def test_enumeration_cap(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 40)
        with pytest.raises(ResourceLimitError, match=r"solve_brute_force: C\(40,20\) ~ 2\^37\.0 subsets"):
            solve_brute_force(K, 20, mode="all_subsets")

    def test_rotation_classes_match_necklace_count(self):
        for n in range(1, 17):
            for k in range(1, n + 1):
                classes = sum(b.shape[0] for b in cell.necklace_gaps(n, k))
                assert cell.rotation_classes(n, k) == classes, (n, k)

    def test_cap_admits_n30_k15_by_rotation_classes(self):
        # 5 170 604 classes; C(30, 15) = 155 117 520 subsets would exceed the cap
        assert cell.rotation_classes(30, 15) == 5_170_604 <= cell.BRUTE_FORCE_CAP
        assert cell.enumeration_size(30, 15) == math.comb(30, 15)

    def test_cap_refuses_n40_k20_naming_subsets_and_classes(self):
        with pytest.raises(
            ResourceLimitError,
            match=r"C\(40,20\) ~ 2\^37\.0 subsets in ~ 2\^31\.7 rotation classes",
        ):
            cell.enumeration_size(40, 20)

    def test_cap_refused_from_the_lgamma_bound_without_exact_counts(self, monkeypatch):
        # the exact C(2.2e6, 275000) has ~360 000 digits and its Burnside sum
        # walks the divisors of gcd(n, k); the bound C(n, k)/n refuses alone
        def no_work(*args):
            raise AssertionError("exact count formed above the screening margin")

        monkeypatch.setattr(cell, "rotation_classes", no_work)
        monkeypatch.setattr(math, "comb", no_work)
        with pytest.raises(ResourceLimitError) as err:
            cell.enumeration_size(2_200_000, 275_000)
        assert str(err.value) == (
            "solve_brute_force: C(2200000,275000) ~ 2^1195831.5 subsets in "
            "~ 2^1195810.5 rotation classes exceed the enumeration cap 10000000"
        )

    @pytest.mark.parametrize("n", [2, 16, 2_200_000])
    def test_empty_and_full_subsets_form_one_class(self, n):
        assert cell.rotation_classes(n, 0) == cell.rotation_classes(n, n) == 1
        assert cell.enumeration_size(n, 0) == cell.enumeration_size(n, n) == 1

    @pytest.mark.parametrize("mode", ["all_subsets", "arcs_only"])
    @pytest.mark.parametrize(
        "n, k_ones, message",
        [
            (16, -1, r"^k_ones must lie in \[0, n\]$"),
            (16, 17, r"^k_ones must lie in \[0, n\]$"),
            (1, 0, r"^n must be at least 2$"),
            (0, 0, r"^n must be at least 2$"),
        ],
    )
    def test_enumeration_size_refuses_bad_sizes(self, mode, n, k_ones, message):
        with pytest.raises(ValueError, match=message):
            cell.enumeration_size(n, k_ones, mode)

    def test_enumeration_size_refuses_over_cap_cells_and_unknown_mode(self):
        with pytest.raises(ResourceLimitError, match=r"^build_cell_matrix: "):
            cell.enumeration_size(util.MAX_INTERVALS + 1, 1, "arcs_only")
        with pytest.raises(ValueError, match=r"^unknown mode 'necklace'$"):
            cell.enumeration_size(16, 4, "necklace")

    def test_arcs_only_counts_arcs(self):
        assert cell.enumeration_size(16, 5, "arcs_only") == 16
        assert cell.enumeration_size(16, 0, "arcs_only") == 1

    def test_arcs_only_search_over_cap_refused_by_the_library(self, monkeypatch):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        monkeypatch.setattr(cell, "BRUTE_FORCE_CAP", 15)
        assert solve_brute_force(K, 3, mode="arcs_only").iterations == 16
        with pytest.raises(ResourceLimitError) as err:
            solve_brute_force(K, 4, mode="arcs_only")
        assert str(err.value) == (
            "solve_brute_force: an arc of k_ones = 4 cells sums 16 offsets, over the cap 15"
        )

    def test_all_subsets_never_above_arcs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2))])
            k = PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, 3))
            K = build_cell_matrix(k, 12)
            for k_ones in (3, 6):
                r_all = solve_brute_force(K, k_ones, mode="all_subsets")
                r_arc = solve_brute_force(K, k_ones, mode="arcs_only")
                assert r_all.energy <= r_arc.energy + 1e-12

    def test_arcs_match_closed_form_for_any_ordering(self):
        # rotation invariance: every arc of length k/n has the closed-form
        # energy, regardless of which band of the weight is cheaper
        for alpha, beta, lam in ((1.0, 2.0, 0.5), (2.0, 1.0, 0.5), (2.0, 1.0, 0.25)):
            K = build_cell_matrix(make_lambda_kernel(alpha, beta, lam), 16)
            for k_ones in (4, 8):
                r_arc = solve_brute_force(K, k_ones, mode="arcs_only")
                assert r_arc.energy == pytest.approx(
                    gamma_closed_form(alpha, beta, lam, k_ones / 16.0), abs=1e-12
                )

    def test_inverted_kernel_spread_patterns_beat_arcs(self):
        # expensive short-range band: clumps spaced into the cheap band cost
        # strictly less than any single arc, and less than the arc closed form
        # with swapped parameters would suggest is optimal
        K = build_cell_matrix(make_lambda_kernel(2.0, 1.0, 0.5), 16)
        r_all = solve_brute_force(K, 8, mode="all_subsets")
        r_arc = solve_brute_force(K, 8, mode="arcs_only")
        assert r_all.energy == pytest.approx(0.71875, abs=1e-12)
        assert r_arc.energy == pytest.approx(0.875, abs=1e-12)
        assert r_all.energy < r_arc.energy - 1e-3
        assert not is_cyclic_arc(r_all.extras["indices"], 16)
        # the swapped-parameter arc value is unachievable (below the spectral
        # lower bound), so it cannot describe this kernel's minimum
        swapped = gamma_closed_form(1.0, 2.0, 0.5, 0.5)
        assert r_all.energy > swapped + 0.05

    @pytest.mark.parametrize(
        "alpha,beta,lam",
        [(1.0, 2.0, 0.25), (1.0, 2.0, 0.5), (2.0, 1.0, 0.25), (2.0, 1.0, 0.5)],
    )
    def test_exhaustive_minima_match_direct_definition(self, alpha, beta, lam):
        # Independent oracle for acceptance criterion 2: score every k-subset
        # by the pair definition n^-2 sum_ij K_ij [phi_i == phi_j], with no
        # use of the accelerated search or of F = 2J - 2*abar*t + abar.
        n = 16
        K = build_cell_matrix(make_lambda_kernel(alpha, beta, lam), n)
        dense = _dense(K)
        abar = lam * alpha + (1.0 - lam) * beta
        # Parseval: J >= t^2 abar + min(0, min_m a_m) (t - t^2) over m != 0,
        # a_m = (alpha - beta) sin(pi m lam) / (pi m); |a_m| <= |alpha-beta|/(pi m)
        # bounds the modes past m_max
        m_max = 64
        m = np.arange(1, m_max + 1)
        a_hat = (alpha - beta) * np.sin(np.pi * m * lam) / (np.pi * m)
        a_min = min(0.0, float(a_hat.min()), -abs(alpha - beta) / (np.pi * (m_max + 1)))

        def pair_score(subsets):
            phi = np.zeros((len(subsets), n))
            np.put_along_axis(phi, np.array(subsets), 1.0, axis=1)
            same = phi[:, :, None] == phi[:, None, :]
            return np.einsum("sij,ij->s", same, dense) / (n * n)

        for k in (2, 4, 6, 8):
            t = k / n
            all_min = float(pair_score(list(itertools.combinations(range(n), k))).min())
            arcs = [[(r + j) % n for j in range(k)] for r in range(n)]
            arc_min = float(pair_score(arcs).min())
            assert all_min == pytest.approx(
                solve_brute_force(K, k, mode="all_subsets").energy, abs=1e-12
            )
            assert arc_min == pytest.approx(
                solve_brute_force(K, k, mode="arcs_only").energy, abs=1e-12
            )
            bound = 2.0 * (t * t * abar + a_min * (t - t * t)) - 2.0 * abar * t + abar
            assert all_min >= bound - 1e-12
            # arcs minimise only when alpha <= beta; spread patterns win otherwise
            if alpha < beta:
                assert all_min == pytest.approx(arc_min, abs=1e-12)
            else:
                assert all_min < arc_min - 1e-9

    def test_arcs_only_matches_every_rotation_scan_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        for n in range(2, 25):
            for _ in range(3):
                nseg = int(rng.integers(1, 6))
                inner = np.sort(rng.uniform(0.02, 0.98, nseg - 1))
                inner = inner[np.concatenate([[True], np.diff(inner) > 1e-3])] if inner.size else inner
                bp = np.concatenate([[0.0], inner])
                K = build_cell_matrix(PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size)), n)
                for k in range(n + 1):
                    res = solve_brute_force(K, k, mode="arcs_only")
                    energy, indices, iterations = _all_rotation_arcs(K, k)
                    assert res.energy == energy
                    assert res.extras["indices"] == indices
                    assert res.iterations == iterations

    def test_mode_validation(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 8)
        with pytest.raises(ValueError):
            solve_brute_force(K, 2, mode="stripes")
        with pytest.raises(ValueError):
            solve_brute_force(K, 9)


class TestIsCyclicArc:
    def test_cases(self):
        assert is_cyclic_arc([0, 1, 2], 8)
        assert is_cyclic_arc([7, 0, 1], 8)  # wraps
        assert not is_cyclic_arc([0, 2], 8)
        assert is_cyclic_arc([], 8)
        assert is_cyclic_arc(list(range(8)), 8)


def _random_kernel(rng):
    nseg = int(rng.integers(1, 6))
    inner = np.sort(rng.uniform(0.02, 0.98, nseg - 1))
    inner = inner[np.concatenate([[True], np.diff(inner) > 1e-3])] if inner.size else inner
    bp = np.concatenate([[0.0], inner])
    return PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))


def _lexicographic_scan(row, n, k, tie_tol, chunk=4096):
    """Reference search: every k-subset in lexicographic order, scored by the
    same sum in the same order, replacing the incumbent only when better by
    more than tie_tol."""
    best = np.inf
    best_idx = np.arange(k)
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        s = np.zeros(len(block))
        for a in range(k):
            for b in range(k):
                s += row[(idx[:, b] - idx[:, a]) % n]
        for pos in np.nonzero(s < best - tie_tol)[0]:
            if s[pos] < best - tie_tol:
                best = float(s[pos])
                best_idx = idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)


def _fkm_reference(n, k):
    """The FKM recursion written out one node at a time: necklace gap
    sequences of the k-subsets of Z_n in lexicographic order, as a flat array."""
    out = array("h" if n < 2**15 else "i")
    if k == 1:
        out.append(n)
        return out
    g = [0] * (k + 1)  # g[1..k]; g[0] = 0 lies below every gap
    before_sum = [0] * k  # g_1 + ... + g_{t-1}, for the free positions t < k
    before_per = [1] * k  # period of g_1..g_{t-1}
    t = 1
    while t:
        v = g[t] + 1
        limit = n // k if t == 1 else n - before_sum[t] - (k - t) * g[1]
        if v > limit:
            t -= 1
            continue
        g[t] = v
        p = before_per[t] if v == g[t - before_per[t]] else t
        s = before_sum[t] + v
        if t + 1 < k:
            t += 1
            before_sum[t], before_per[t] = s, p
            g[t] = g[t - p] - 1  # the first value tried at t is g[t-p]
            continue
        last = n - s
        ref = g[k - p]
        if last > ref or (last == ref and k % p == 0):
            out.extend(g[1:k])
            out.append(last)
    return out


def _necklace_blocks(n, k):
    """The blocks necklace_gaps streams, checked for shape and size: full
    blocks of SEARCH_CHUNK rows, the last one shorter."""
    blocks = list(cell.necklace_gaps(n, k))
    for i, b in enumerate(blocks):
        assert b.ndim == 2 and b.shape[1] == k
        assert 1 <= b.shape[0] <= cell.SEARCH_CHUNK, (n, k, b.shape)
        assert b.shape[0] == cell.SEARCH_CHUNK or i == len(blocks) - 1, (n, k, i)
    return blocks


def _necklace_array(n, k):
    return np.concatenate(_necklace_blocks(n, k))


class TestSubsetSearch:
    def test_blocks_match_fkm_reference(self):
        for n in range(1, 23):
            for k in range(1, n + 1):
                ref = _fkm_reference(n, k)
                got = _necklace_array(n, k)
                assert got.dtype == np.dtype(ref.typecode), (n, k)
                assert np.array_equal(got.ravel(), np.frombuffer(ref, dtype=ref.typecode)), (n, k)

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_small_chunks_match_fkm_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(cell, "SEARCH_CHUNK", chunk)
        # n = 200, k = 3: the root alone has 66 children, well above the chunk;
        # k = 20 runs past STEP_DEPTH, where steps build fewer children;
        # the last four are deep trees where the run bound prunes prefixes
        cases = [(n, k) for n in range(1, 15) for k in range(1, n + 1)]
        for n, k in cases + [(200, 3), (37, 5), (24, 20), (30, 26), (40, 37), (26, 20), (60, 57)]:
            got = np.concatenate(_necklace_blocks(n, k)).ravel()
            assert np.array_equal(got, np.array(_fkm_reference(n, k))), (chunk, n, k)

    def test_dead_prefixes_are_not_walked(self):
        # k = n - 2 has 150 classes, but the prenecklace tree bounded only by
        # g_1 builds ~2e6 prefixes, nearly all of which cannot finish a
        # necklace; holding them takes ~30 MB
        tracemalloc.start()
        try:
            rows = sum(b.shape[0] for b in cell.necklace_gaps(300, 298))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 150
        assert peak < 4 * 2**20

    def test_representatives_are_smallest_rotations_in_order(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                gaps = _necklace_array(n, k)
                assert np.all(gaps.sum(axis=1) == n)
                starts = np.concatenate([np.zeros((gaps.shape[0], 1), int),
                                         np.cumsum(gaps[:, :-1], axis=1)], axis=1)
                expected = sorted({
                    min(tuple(sorted((x - r) % n for x in S)) for r in range(n))
                    for S in itertools.combinations(range(n), k)
                })
                assert [tuple(r) for r in starts] == expected, (n, k)

    def test_large_grid_single_cell(self):
        # n beyond the 16-bit gap range (C(n, 1) = n is within the cap)
        n = 40_000
        row = np.cos(np.arange(n))
        energy, idx = cell.brute_force_search(row, n, 1, 1e-12)
        assert energy == row[0] and idx.tolist() == [0]

    @pytest.mark.parametrize("budget", [0, cell.MEMO_POSITIONS], ids=["cold", "warm"])
    def test_solve_brute_force_matches_lexicographic_scan_bit_for_bit(self, monkeypatch, budget):
        # budget 0 keeps nothing, so every search streams its classes; the
        # default keeps each (n, k), so the kernels after the first on a grid
        # score positions from the memo
        monkeypatch.setattr(cell, "MEMO_POSITIONS", budget)
        # tie kernels (alpha, beta in {1, 2}, lam in {1/4, 1/2}: many exactly
        # equal sums) at n = 16, then random multi-segment kernels at n <= 16
        kernels = [(make_lambda_kernel(a, b, lam), 16)
                   for a in (1.0, 2.0) for b in (1.0, 2.0) for lam in (0.25, 0.5)]
        rng = np.random.default_rng(20261018)
        for case in range(292):
            n = int(rng.integers(14, 17)) if case % 30 == 0 else int(rng.integers(2, 13))
            kernels.append((_random_kernel(rng), n))
        for kern, n in kernels:
            K = build_cell_matrix(kern, n)
            for k in range(n + 1):
                res = solve_brute_force(K, k)
                tie_tol = 1e-12 * max(1.0, k * k * float(np.max(np.abs(K.first_row))))
                raw, idx = (_lexicographic_scan(K.first_row, n, k, tie_tol) if k
                            else (0.0, np.zeros(0, dtype=np.int64)))
                J = raw / (n * n)
                t = k / n
                assert res.energy == float(2.0 * J - 2.0 * K.abar * t + K.abar), (n, k)
                assert res.extras["indices"] == np.sort(idx).tolist(), (n, k)
                assert res.iterations == math.comb(n, k)
        assert bool(cell._memo) == bool(budget)

    # positions (classes * k): (12, 6) 480, (10, 5) 130, (12, 4) 172,
    # (13, 6) 792 and (11, 5) 210 fit the budget below. (14, 7) has 1722 and
    # (16, 8) 6480, over it: both stream and collect nothing
    MEMO_CASES = [(12, 6), (10, 5), (14, 7), (12, 4), (12, 6), (13, 6), (16, 8), (11, 5),
                  (12, 6)]
    MEMO_BUDGET = 1720

    def _memo_rows_and_results(self, monkeypatch):
        """One random row per n, and each case's result with nothing kept."""
        monkeypatch.setattr(cell, "MEMO_POSITIONS", 0)
        rng = np.random.default_rng(20261020)
        rows = {n: rng.standard_normal(n) for n in range(10, 17)}
        results = [cell.brute_force_search(rows[n], n, k, 1e-12) for n, k in self.MEMO_CASES]
        assert not cell._memo
        monkeypatch.setattr(cell, "MEMO_POSITIONS", self.MEMO_BUDGET)
        return rows, results

    def test_memo_holds_at_most_its_budget(self, monkeypatch):
        monkeypatch.setattr(cell, "SEARCH_CHUNK", 16)
        rows, expected = self._memo_rows_and_results(monkeypatch)
        streamed = []
        real = cell.necklace_gaps
        monkeypatch.setattr(cell, "necklace_gaps",
                            lambda n, k: streamed.append((n, k)) or real(n, k))
        kept = []
        for (n, k), (energy, idx) in zip(self.MEMO_CASES, expected):
            got_energy, got_idx = cell.brute_force_search(rows[n], n, k, 1e-12)
            assert got_energy == energy and np.array_equal(got_idx, idx), (n, k)
            held = {key: sum(b.size for b in v) for key, v in cell._memo.items()}
            assert sum(held.values()) <= self.MEMO_BUDGET, (n, k)
            size = rotation_classes(n, k) * k
            assert ((n, k) in held) == (size <= self.MEMO_BUDGET), (n, k)
            if (n, k) in held:
                assert held[n, k] == size
            kept.append(sorted(held))
        assert streamed == [(12, 6), (10, 5), (14, 7), (12, 4), (13, 6), (16, 8), (11, 5),
                            (12, 6)]
        # (11, 5) would push the memo to 1784 positions: it is emptied first
        assert kept[-3:] == [[(10, 5), (12, 4), (12, 6), (13, 6)], [(11, 5)], [(11, 5), (12, 6)]]

    def test_enumeration_that_cannot_fit_streams(self):
        # C(24, 12) / 24 * 12 = 1.35e6 positions bound the enumeration below,
        # over the default budget: nothing is collected for the memo, so the
        # search's peak stays below the budget's own 2 MiB
        row = np.random.default_rng(20261020).standard_normal(24)
        tracemalloc.start()
        try:
            cell.brute_force_search(row, 24, 12, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not cell._memo
        assert peak < 2 * cell.MEMO_POSITIONS

    def test_grid_over_budget_by_its_exact_class_count_streams(self, monkeypatch):
        # the budget lies between C(24, 12) / 24 * 12 = 1 352 078, which would
        # fit, and the exact 112 720 classes * 12 = 1 352 640 positions, which
        # do not: the grid is refused before its first block and never
        # collected, so the peak stays below what collecting it would take
        assert rotation_classes(24, 12) * 12 == 1_352_640
        monkeypatch.setattr(cell, "MEMO_POSITIONS", 1_352_100)
        row = np.random.default_rng(20261020).standard_normal(24)
        tracemalloc.start()
        try:
            cell.brute_force_search(row, 24, 12, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not cell._memo
        assert peak < 2 * 2**20

    def test_memo_is_safe_under_concurrent_searches(self, monkeypatch):
        monkeypatch.setattr(cell, "SEARCH_CHUNK", 16)
        rows, expected = self._memo_rows_and_results(monkeypatch)
        failures = []

        def search(offset):
            for r in range(3):
                for i in range(len(self.MEMO_CASES)):
                    j = (i + offset + r) % len(self.MEMO_CASES)
                    n, k = self.MEMO_CASES[j]
                    energy, idx = cell.brute_force_search(rows[n], n, k, 1e-12)
                    if energy != expected[j][0] or not np.array_equal(idx, expected[j][1]):
                        failures.append((n, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert sum(b.size for v in cell._memo.values() for b in v) <= self.MEMO_BUDGET


class TestAccelShim:
    """``nlhomog._accel`` only re-exports what the benchmark's tracer wraps:
    a function defined there again would leave the traced ``accel.*`` layers
    reading 0."""

    def test_traced_names_are_the_layers_own_functions(self):
        assert _accel.pair_energy is nlhomog.energy.pair_energy
        assert _accel.quadrature_energy is nlhomog.energy.quadrature_energy
        assert _accel.brute_force_search is cell.brute_force_search
        own = [name for name, value in vars(_accel).items()
               if callable(value) and getattr(value, "__module__", None) == "nlhomog._accel"]
        assert own == []

    def test_package_import_loads_the_shim(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", "import nlhomog; nlhomog._accel.HAVE_NUMBA"],
                       env=env, check=True, timeout=120)
