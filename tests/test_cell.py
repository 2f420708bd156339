import itertools

import numpy as np
import pytest

from nlhomog import (
    CellProfile,
    PeriodicStepKernel,
    ResourceLimitError,
    build_cell_matrix,
    cell_energy,
    gamma_closed_form,
    kernel_mean,
    make_lambda_kernel,
    optimal_profile,
    solve_brute_force,
    solve_relaxed,
)
from nlhomog.cell import CellKernelMatrix, _spectral_norm, is_cyclic_arc

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
        assert optimal_profile(0.5, "low_cost_at_zero") == [(0.0, 0.25), (0.75, 1.0)]

    def test_centered_arc(self):
        assert optimal_profile(0.5, "low_cost_at_half") == [(0.25, 0.75)]

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.93, 1.0])
    def test_total_length(self, t):
        for orientation in ("low_cost_at_zero", "low_cost_at_half"):
            arcs = optimal_profile(t, orientation)
            assert sum(b - a for a, b in arcs) == pytest.approx(t, abs=1e-15)

    def test_unknown_orientation(self):
        with pytest.raises(ValueError):
            optimal_profile(0.5, "sideways")


class TestCellMatrix:
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
        assert K.quad_form(ones) / (n * n) == pytest.approx(kernel_mean(k), abs=1e-12)

    def test_entries_positive(self):
        K = build_cell_matrix(make_lambda_kernel(0.3, 2.0, 0.25), 32)
        assert np.all(K.first_row > 0)

    def test_symmetric_kernel_gives_symmetric_row(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.4), 16)
        for j in range(1, 16):
            assert K.first_row[j] == pytest.approx(K.first_row[16 - j], abs=1e-13)

    def test_fft_and_direct_matvec_agree(self):
        k = PeriodicStepKernel([0.0, 0.2, 0.5], [1.0, 3.0, 2.0])  # asymmetric
        for n in (128, 1024):
            K = build_cell_matrix(k, n)
            x = np.random.default_rng(0).uniform(size=n)
            d = K.matvec(x, use_fft=False)
            f = K.matvec(x, use_fft=True)
            assert np.max(np.abs(d - f)) <= 1e-10

    def test_direct_matvec_matches_dense(self):
        k = PeriodicStepKernel([0.0, 0.2, 0.5], [1.0, 3.0, 2.0])
        n = 12
        K = build_cell_matrix(k, n)
        dense = np.array([[K.entry(i, j) for j in range(n)] for i in range(n)])
        x = np.arange(n, dtype=float)
        assert np.allclose(K.matvec(x, use_fft=False), dense @ x, atol=1e-12)

    def test_direct_matvec_equals_index_gather_bit_for_bit(self):
        # the reference builds the same dense matrix through an int64 index
        # matrix; the same matrix and the same BLAS product give equal bits
        rng = np.random.default_rng(11)
        for n in list(range(2, 65)) + list(range(65, 1023, 53)) + [1023]:
            K = CellKernelMatrix(n=n, first_row=rng.uniform(0.5, 3.0, n), abar=1.0)
            x = rng.standard_normal(n)
            idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            assert np.array_equal(K.matvec(x, use_fft=False), K.first_row[idx] @ x), n

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
            dense = K.first_row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
            exact = float(np.max(np.abs(np.linalg.eigvals(dense)))) / (n * n)
            assert _spectral_norm(K) == pytest.approx(exact, rel=1e-12, abs=0.0), K.first_row


class TestCellEnergy:
    def test_flat_profiles(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        K = build_cell_matrix(k, 32)
        abar = kernel_mean(k)
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
        # off-grid arc endpoints (t = 1/3): snapped indicators converge at
        # first order, so the error halves when n doubles
        target = gamma_closed_form(1.0, 2.0, 0.5, 1.0 / 3.0)
        errs = {}
        for n in (64, 128, 256, 512):
            K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), n)
            phi = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), n, mode="snap")
            errs[n] = abs(cell_energy(K, phi) - target)
        for n in (64, 128, 256):
            assert 1.7 <= errs[n] / errs[2 * n] <= 2.3

    def test_mass_preserving_discretization_is_second_order(self):
        target = gamma_closed_form(1.0, 2.0, 0.5, 1.0 / 3.0)
        errs = {}
        for n in (64, 256):
            K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), n)
            phi = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), n, mode="average")
            errs[n] = abs(cell_energy(K, phi) - target)
        assert errs[64] / errs[256] == pytest.approx(16.0, rel=0.3)


class TestCellProfile:
    def test_from_arcs_mean(self):
        p = CellProfile.from_arcs(optimal_profile(0.5), 16)
        assert p.mean == pytest.approx(0.5, abs=1e-15)

    def test_snap_values_binary(self):
        p = CellProfile.from_arcs(optimal_profile(1.0 / 3.0), 16, mode="snap")
        assert set(np.unique(p.values)) <= {0.0, 1.0}

    def test_value_range_validation(self):
        with pytest.raises(ValueError):
            CellProfile.from_values([0.5, 1.4])


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

    def test_t_validation(self):
        K = build_cell_matrix(make_lambda_kernel(1.0, 2.0, 0.5), 16)
        with pytest.raises(ValueError):
            solve_relaxed(K, 1.2)


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
        with pytest.raises(ResourceLimitError, match=r"solve_brute_force: C\(40,20\) = \d+ subsets"):
            solve_brute_force(K, 20, mode="all_subsets")

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
        dense = np.array([[K.entry(i, j) for j in range(n)] for i in range(n)])
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
