import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from nlhomog import (
    StepFunction,
    TripleWellPotential,
    evaluate,
    fM_threshold_experiment,
    gamma_limit_constant_value,
    implied_g1,
    make_lambda_kernel,
    non_representability_certificate,
    optimal_profile,
    oscillating_profile,
    run_flat_study,
    run_recovery_study,
    run_step_study,
    step_limit_value,
    two_scale_pairing,
)
from nlhomog import ArgumentRangeError, gammalab
from nlhomog.kernel import PeriodicStepFunction

EPS_GRID = [1.0 / m for m in (8, 16, 32, 64)]


class TestConstantLimit:
    def test_reference_value(self):
        assert gamma_limit_constant_value(1.0, 2.0, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_homogeneous_limits(self):
        # lam -> 1: only the alpha band remains, at half weight; lam -> 0: beta
        assert gamma_limit_constant_value(1.0, 2.0, 1.0 - 1e-9) == pytest.approx(0.5, abs=1e-6)
        assert gamma_limit_constant_value(1.0, 2.0, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_equals_cell_minimum_everywhere(self):
        # written-out best-arc value at t = 1/2, independent of the cell closed form
        rng = np.random.default_rng(9)
        inverted = 0
        for _ in range(30):
            alpha, beta = rng.uniform(0.2, 4.0, 2)
            lam = rng.uniform(0.01, 0.99)
            inverted += alpha > beta
            one_m = (1.0 - lam) ** 2
            expected = ((1.0 - one_m) * alpha + one_m * beta) / 2.0
            assert gamma_limit_constant_value(alpha, beta, lam) == pytest.approx(
                expected, abs=1e-12
            )
        assert 0 < inverted < 30


class TestRecoveryStudy:
    def test_whole_period_grid_hits_limit(self):
        st = run_recovery_study(0.0, 1.0, 2.0, 0.5, EPS_GRID)
        assert st.limit_ref == pytest.approx(0.625, abs=1e-15)
        assert st.final_error <= 1e-2
        # whole periods: the exact evaluator reproduces the limit to roundoff
        assert all(abs(v - 0.625) <= 1e-10 for v in st.values)
        assert st.envelope_ok

    def test_liminf_inequality(self):
        st = run_recovery_study(0.0, 1.0, 2.0, 0.5, EPS_GRID)
        assert all(v >= st.limit_ref - 1e-9 for v in st.values)

    def test_constant_weight_recovery_is_half(self):
        st = run_recovery_study(0.0, 1.0, 1.0, 0.5, EPS_GRID)
        assert all(abs(v - 0.5) <= 1e-12 for v in st.values)

    def test_flat_sequence_pays_full_mean(self):
        st = run_flat_study(0.0, 1.0, 2.0, 0.5, EPS_GRID)
        assert all(abs(v - 1.5) <= 1e-10 for v in st.values)

    def test_non_integer_periods_flagged(self):
        st = run_recovery_study(0.0, 1.0, 2.0, 0.5, [1.0 / 3.5, 1.0 / 7.3])
        assert any("boundary_effects" in n for n in st.notes)

    def test_eps_grid_must_decrease(self):
        with pytest.raises(ValueError):
            run_recovery_study(0.0, 1.0, 2.0, 0.5, [0.1, 0.2])

    def test_machine_exact_studies_skip_rate_fit(self):
        st = run_recovery_study(0.0, 1.0, 2.0, 0.5, EPS_GRID)
        assert st.fitted_rate is None
        assert any("rate_fit_skipped" in n for n in st.notes)


class TestStepStudy:
    def test_exact_at_whole_periods(self):
        st = run_step_study(0.5, 1.0, 2.0, 0.5, EPS_GRID)
        assert st.limit_ref == pytest.approx(0.75, abs=1e-15)
        assert st.final_error <= 1e-10

    def test_second_order_rate_off_grid(self):
        # s*m is never an integer here, so genuine O(eps^2) errors appear
        st = run_step_study(0.3, 1.0, 2.0, 0.5, [1.0 / m for m in (8, 16, 32, 64, 128, 256)])
        assert st.fitted_rate == pytest.approx(2.0, abs=0.3)
        assert st.final_error <= 1e-2


class TestTwoScalePairing:
    def test_profile_mass(self):
        chi = oscillating_profile(0.0, optimal_profile(0.5), 0.125)
        one = StepFunction.constant(1.0)
        flat = PeriodicStepFunction([0.0], [1.0])
        assert two_scale_pairing(chi, one, flat, 0.125) == pytest.approx(0.5, abs=1e-14)

    def test_weight_overlap(self):
        # profile arcs coincide with the alpha band of the half-lambda weight,
        # so the pairing equals alpha times the band measure: 1 * 1/2
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        chi = oscillating_profile(0.0, optimal_profile(0.5), 0.125)
        psi2 = PeriodicStepFunction(k.breakpoints, k.values)
        assert two_scale_pairing(chi, StepFunction.constant(1.0), psi2, 0.125) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_zero_indicator(self):
        chi = StepFunction.constant(0.0)
        psi2 = PeriodicStepFunction([0.0], [1.0])
        assert two_scale_pairing(chi, StepFunction.constant(1.0), psi2, 0.25) == 0.0

    def test_non_integer_periods_converge(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        psi2 = PeriodicStepFunction(k.breakpoints, k.values)
        one = StepFunction.constant(1.0)
        for m in (3.7, 11.3, 41.7):
            eps = 1.0 / m
            chi = oscillating_profile(0.0, optimal_profile(0.5), eps)
            val = two_scale_pairing(chi, one, psi2, eps)
            assert abs(val - 0.5) <= 2.0 * eps * max(k.values)

    def test_modulated_macroscopic_factor(self):
        # psi1 an indicator of (0, 1/2): the pairing localizes to that half
        chi = oscillating_profile(0.0, optimal_profile(0.5), 0.125)
        psi1 = StepFunction([0.0, 0.5], [1.0, 0.0])
        flat = PeriodicStepFunction([0.0], [1.0])
        assert two_scale_pairing(chi, psi1, flat, 0.125) == pytest.approx(0.25, abs=1e-14)


def _two_scale_pairing_per_period(chi_eps, psi1, psi2, eps):
    """Oracle: two_scale_pairing with psi2's cuts built one period at a time."""
    cuts = [chi_eps.endpoints, psi1.endpoints]
    n_periods = math.ceil(1.0 / eps)
    per = [
        (j + b) * eps
        for j in range(n_periods + 1)
        for b in psi2.breakpoints
        if 0.0 < (j + b) * eps < 1.0
    ]
    cuts.append(np.array(per))
    edges = np.unique(np.clip(np.concatenate(cuts), 0.0, 1.0))
    mids = 0.5 * (edges[:-1] + edges[1:])
    lens = np.diff(edges)
    vals = chi_eps.eval(mids) * psi1.eval(mids) * psi2.eval(mids / eps)
    return float(np.dot(vals, lens))


def _random_breakpoints(rng, pieces):
    return np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, pieces - 1))])


def _two_scale_pairing_exact(chi_eps, psi1, psi2, eps):
    """Oracle: the pairing in rational arithmetic, cut at every (j + b) * eps
    exactly and each factor looked up at the exact piece midpoint."""
    e = Fraction(eps)
    bps = {f: [Fraction(b) for b in f.breakpoints] for f in (chi_eps, psi1, psi2)}

    def at(f, x):
        return Fraction(f.values[bisect_right(bps[f], x) - 1])

    cuts = set(bps[chi_eps] + bps[psi1] + [Fraction(1)])
    cuts |= {(j + b) * e for j in range(math.ceil(1.0 / eps) + 1) for b in bps[psi2]}
    edges = sorted(c for c in cuts if c <= 1)
    total = Fraction(0)
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        t = mid / e
        total += at(chi_eps, mid) * at(psi1, mid) * at(psi2, t - math.floor(t)) * (b - a)
    return total


class TestTwoScaleCutGrid:
    """The closed-form pairing against psi2's cut grid built one period at a
    time and against exact rational arithmetic, for signed psi2."""

    @pytest.mark.parametrize("kind", ["whole", "fractional", "jittered"])
    def test_matches_per_period_loop(self, kind):
        rng = np.random.default_rng({"whole": 1, "fractional": 2, "jittered": 3}[kind])
        for _ in range(40):
            bp = _random_breakpoints(rng, int(rng.integers(1, 6)))
            psi2 = PeriodicStepFunction(bp, rng.uniform(-2.0, 3.0, bp.size))
            bp1 = _random_breakpoints(rng, int(rng.integers(1, 4)))
            psi1 = StepFunction(bp1, rng.uniform(-1.0, 2.0, bp1.size))
            m = int(rng.integers(1, 200))
            # jittered: 1/eps above m by less than the profile's period-count
            # slack, so that the last period start m * eps falls just below 1
            inv_eps = {"whole": m, "fractional": m + rng.uniform(0.01, 0.99),
                       "jittered": m + 5e-13}[kind]
            eps = 1.0 / inv_eps
            chi = oscillating_profile(0.0, optimal_profile(float(rng.uniform(0.05, 0.95))), eps)
            got = two_scale_pairing(chi, psi1, psi2, eps)
            # |integrand| <= scale on (0, 1); the closed form stays within a
            # few ulps of it (worst seen 7.8e-16 * scale), the per-period sum
            # of ~m pieces within ~m ulps (worst seen 3.3e-17 * (m + 10) * scale)
            scale = np.max(np.abs(psi1.values)) * np.max(np.abs(psi2.values))
            assert abs(got - float(_two_scale_pairing_exact(chi, psi1, psi2, eps))) <= 4e-15 * scale
            want = _two_scale_pairing_per_period(chi, psi1, psi2, eps)
            assert abs(got - want) <= 1e-16 * (m + 10) * scale


class TestTwoScaleScale:
    """The pairing's cost depends neither on eps nor on psi2's segment count."""

    # ten equal segments: the mean is the values' average, 1.55
    PSI2 = PeriodicStepFunction(np.arange(10) / 10.0, [1.0, 2.5, 0.7, 1.9, 3.1, 0.4, 1.2, 2.2, 0.9, 1.6])

    def test_many_segments_at_fine_eps_in_little_memory(self):
        one = StepFunction.constant(1.0)
        two_scale_pairing(one, one, self.PSI2, 1e-3)
        tracemalloc.start()
        try:
            val = two_scale_pairing(one, one, self.PSI2, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert val == pytest.approx(1.55, abs=1e-14)

    def test_range(self):
        one = StepFunction.constant(1.0)
        assert two_scale_pairing(one, one, self.PSI2, 1.0 / 1.5e6) == pytest.approx(1.55, abs=1e-14)
        with pytest.raises(ArgumentRangeError):
            two_scale_pairing(one, one, self.PSI2, 1.0 / 2e12)


class TestStepLimitValue:
    def test_values(self):
        assert step_limit_value(0.5, 1.0, 2.0, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert step_limit_value(0.25, 1.0, 2.0, 0.5) == pytest.approx(0.9375, abs=1e-15)

    def test_endpoint_limit(self):
        assert step_limit_value(1e-9, 1.0, 2.0, 0.5) == pytest.approx(1.5, abs=1e-8)

    def test_strictly_below_mean_inside(self):
        for s in np.linspace(0.01, 0.99, 33):
            assert step_limit_value(s, 1.0, 2.0, 0.5) < 1.5

    def test_domain(self):
        for s in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                step_limit_value(s, 1.0, 2.0, 0.5)

    def test_matches_finite_eps_energy(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        pot = TripleWellPotential()
        for s in (0.25, 0.5):
            u = StepFunction([0.0, s], [1.0, 0.0])
            v = evaluate(u, pot, k, 1.0 / 1024.0).value
            assert abs(v - step_limit_value(s, 1.0, 2.0, 0.5)) <= 1e-6


class TestImpliedUnitJumpCost:
    def test_reference_values(self):
        assert implied_g1(0.5, 1.0, 2.0, 0.5) == pytest.approx(0.875, abs=1e-15)
        assert implied_g1(0.25, 1.0, 2.0, 0.5) == pytest.approx(5.0 / 3.0 * 0.875, abs=1e-12)

    def test_symmetry(self):
        for s in (0.1, 0.3, 0.45):
            assert implied_g1(s, 1.0, 2.0, 0.5) == pytest.approx(
                implied_g1(1.0 - s, 1.0, 2.0, 0.5), abs=1e-13
            )

    def test_strictly_decreasing_to_the_midpoint(self):
        ss = np.linspace(0.05, 0.5, 46)
        vals = [implied_g1(s, 1.0, 2.0, 0.5) for s in ss]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            implied_g1(0.0, 1.0, 2.0, 0.5)

    def test_matches_written_out_formula(self):
        # ratio * (lam^2 alpha + (1 - lam^2) beta) / 2, alpha > beta included
        rng = np.random.default_rng(10)
        for _ in range(30):
            alpha, beta = rng.uniform(0.2, 4.0, 2)
            lam, s = rng.uniform(0.01, 0.99, 2)
            ratio = (s * s + (1 - s) ** 2) / (2 * s * (1 - s))
            expected = ratio * (lam * lam * alpha + (1 - lam * lam) * beta) / 2
            assert implied_g1(s, alpha, beta, lam) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_difference_identity(self):
        # g(s1) - g(s2) == (mean - cell_min) * (r(s1) - r(s2))
        alpha, beta, lam = 1.0, 2.0, 0.5
        abar = lam * alpha + (1 - lam) * beta
        gap = abar - gamma_limit_constant_value(alpha, beta, lam)

        def r(s):
            return (s * s + (1 - s) ** 2) / (2 * s * (1 - s))

        for s1, s2 in ((0.5, 0.25), (0.3, 0.6), (0.2, 0.45)):
            lhs = implied_g1(s1, alpha, beta, lam) - implied_g1(s2, alpha, beta, lam)
            assert lhs == pytest.approx(gap * (r(s1) - r(s2)), abs=1e-12)


class TestNonRepresentability:
    def test_default_pair_confirmed(self):
        cert = non_representability_certificate(1.0, 2.0, 0.5, eps_grid=EPS_GRID)
        assert cert.verdict == "confirmed"
        p = cert.payload
        assert p["unit_jump_cost_s1"] == pytest.approx(0.875, abs=1e-12)
        assert p["unit_jump_cost_s2"] == pytest.approx(35.0 / 24.0, abs=1e-12)
        assert p["abs_difference"] == pytest.approx(7.0 / 12.0, abs=1e-12)
        assert p["constant_target_study"]["final_error"] <= 1e-2
        for st in p["step_target_studies"].values():
            assert st["final_error"] <= 1e-2

    def test_equal_weights_still_confirmed(self):
        cert = non_representability_certificate(1.5, 1.5, 0.5, eps_grid=EPS_GRID)
        assert cert.verdict == "confirmed"
        assert cert.payload["abs_difference"] > 0.0

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            non_representability_certificate(1.0, 2.0, 0.5, s1=0.25, s2=0.75)

    def test_huge_tolerance_refutes(self):
        cert = non_representability_certificate(1.0, 2.0, 0.5, tol=10.0, eps_grid=EPS_GRID)
        assert cert.verdict == "refuted"


class TestCappedThreshold:
    def test_confirmed_with_threshold_one(self):
        cert = fM_threshold_experiment(1.0, 2.0, 0.5, eps=1.0 / 32.0)
        assert cert.verdict == "confirmed"
        # zero-cost pairs need unit increments, which every default deviation
        # forfeits, so even the lowest cap makes them strictly worse
        assert cert.payload["threshold_M"] == 1.0
        assert cert.payload["admissible_optimum_energy"] == pytest.approx(0.625, abs=1e-12)

    def test_two_level_deviation_energy_is_affine_in_cap(self):
        # half-gap split at whole periods: same-side pairs cost the well value,
        # cross pairs cost the cap, each on a quarter of the square per side
        cert = fM_threshold_experiment(1.0, 2.0, 0.5, eps=1.0 / 32.0, M_grid=(1.0, 4.0))
        for row in cert.payload["rows"]:
            M = row["M"]
            assert row["deviation_energies"][1] == pytest.approx(0.75 + 0.75 * M, abs=1e-10)
            assert row["deviation_energies"][2] == pytest.approx(0.75 + 0.75 * M, abs=1e-10)

    def test_custom_family_and_inconclusive(self, monkeypatch):
        # an admissible profile never becomes strictly worse than the optimum
        # at its own volume fraction, so the verdict cannot be confirmed
        fake_deviation = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / 32.0)
        monkeypatch.setattr(gammalab, "DEVIATION_PROFILES", (fake_deviation,))
        cert = fM_threshold_experiment(1.0, 2.0, 0.5, eps=1.0 / 32.0, M_grid=(1.0, 2.0))
        assert cert.verdict == "inconclusive"
        assert cert.payload["threshold_M"] is None
