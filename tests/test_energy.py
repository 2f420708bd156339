import math

import numpy as np
import pytest

from nlhomog import (
    ArgumentRangeError,
    PeriodicStepKernel,
    ResourceLimitError,
    StepFunction,
    TripleWellPotential,
    build_cell_matrix,
    evaluate,
    evaluate_potentials,
    evaluate_quadrature,
    fM_threshold_experiment,
    integrate,
    make_lambda_kernel,
    optimal_profile,
    oscillating_profile,
    rect_integral,
)
from nlhomog import energy, util
from nlhomog.gammalab import DEFAULT_M_GRID, DEVIATION_PROFILES, gamma_limit_constant_value
from nlhomog.kernel import PERIODIC_REDUCTION_RANGE

INF_POT = TripleWellPotential()


def correlation_integral_unit_square(k):
    """Independent oracle for Int_{[0,1]^2} a(x-y) dx dy at eps=1:
    Int_{-1}^{1} (1-|d|) a(d) dd, done exactly segment by segment."""
    ends = np.append(k.breakpoints, 1.0)

    def seg_int(p, q):  # integral of (1-x) over [p, q]
        return (q - p) - 0.5 * (q * q - p * p)

    pos = sum(v * seg_int(b0, b1) for v, b0, b1 in zip(k.values, ends[:-1], ends[1:]))
    # negative side: a(-d) = a(1-d); substitute to reuse the same segments
    neg = sum(v * seg_int(1.0 - b1, 1.0 - b0) for v, b0, b1 in zip(k.values, ends[:-1], ends[1:]))
    return pos + neg


class TestRectIntegral:
    def test_constant_kernel_area(self):
        k = PeriodicStepKernel([0.0], [3.0])
        assert rect_integral(k, 0.1, 0.0, 0.5, 0.2, 0.7) == pytest.approx(0.75, abs=1e-14)

    def test_unit_square_eps_one(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        oracle = correlation_integral_unit_square(k)
        assert oracle == pytest.approx(1.5, abs=1e-14)
        assert rect_integral(k, 1.0, 0.0, 1.0, 0.0, 1.0) == pytest.approx(oracle, abs=1e-13)

    def test_unit_square_whole_periods_is_exact_mean(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        val = rect_integral(k, 1.0 / 64.0, 0.0, 1.0, 0.0, 1.0)
        assert val == pytest.approx(1.5, abs=1e-14)

    def test_against_quadrature(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for eps, rect in [(1.0, (0.0, 1.0, 0.0, 1.0)), (0.22, (0.1, 0.7, 0.3, 0.9))]:
            exact = rect_integral(k, eps, *rect)
            n = 4000
            xs = np.linspace(rect[0], rect[1], n + 1)
            ys = np.linspace(rect[2], rect[3], n + 1)
            xm = 0.5 * (xs[:-1] + xs[1:])
            ym = 0.5 * (ys[:-1] + ys[1:])
            vals = k.eval((xm[:, None] - ym[None, :]) / eps)
            approx = vals.mean() * (rect[1] - rect[0]) * (rect[3] - rect[2])
            assert exact == pytest.approx(approx, abs=2e-3)

    def test_one_corner_call_matches_four_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        for _ in range(2000):
            nseg = int(rng.integers(1, 6))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, nseg - 1))])
            k = PeriodicStepKernel(bp, rng.uniform(0.2, 3.0, bp.size))
            eps = float(rng.uniform(1e-3, 2.0))
            x0, y0 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
            x1 = x0 + float(rng.uniform(1e-6, 2.0))
            y1 = y0 + float(rng.uniform(1e-6, 2.0))
            per = (
                k.periodic_part((x1 - y0) / eps)
                - k.periodic_part((x1 - y1) / eps)
                - k.periodic_part((x0 - y0) / eps)
                + k.periodic_part((x0 - y1) / eps)
            )
            expected = k.table.mean * (x1 - x0) * (y1 - y0) + eps * eps * per
            got = rect_integral(k, eps, x0, x1, y0, y1)
            assert type(got) is float and got == expected

    def test_corner_range_guard(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ArgumentRangeError):
            # only the last corner, x0 - y1, lies beyond the range
            rect_integral(k, 1.0, 0.0, 1.0, 1e12 - 1.5, 1e12 + 0.5)

    def test_degenerate_rectangle(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            rect_integral(k, 0.5, 0.3, 0.3, 0.0, 1.0)

    def test_eps_range_guard(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            rect_integral(k, 0.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ArgumentRangeError):
            rect_integral(k, 1e-13, 0.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf])
    def test_non_finite_eps_is_refused(self, eps):
        # at eps = inf the corner term would be inf * 0 = nan
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="eps must be positive"):
            rect_integral(k, eps, 0.0, 0.5, 0.0, 1.0)


def _periodic_part_oracle(k, t):
    """B_per as first written: the segment index by searchsorted over all
    breakpoints, less one."""
    t = np.asarray(t, dtype=float)
    u = t - np.floor(t)
    idx = np.searchsorted(k.breakpoints, u, side="right") - 1
    du = u - k.breakpoints[idx]
    out = k.table.q0[idx] + du * (k.table.q1[idx] + du * k.table.q2[idx])
    return float(out) if out.ndim == 0 else out


def _rect_integral_oracle(k, eps, x0, x1, y0, y1):
    """rect_integral as first written: the corners divided by eps as one
    array, whose largest modulus numpy checks against the range."""
    corners = np.array((x1 - y0, x1 - y1, x0 - y0, x0 - y1)) / eps
    if np.max(np.abs(corners)) > PERIODIC_REDUCTION_RANGE:
        raise ArgumentRangeError("corner argument exceeds the periodic reduction range")
    p = _periodic_part_oracle(k, corners)
    per = p[0] - p[1] - p[2] + p[3]
    return float(k.table.mean * (x1 - x0) * (y1 - y0) + eps * eps * per)


def _random_kernel(rng):
    nseg = int(rng.integers(1, 6))
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, nseg - 1))])
    return PeriodicStepKernel(bp, rng.uniform(0.2, 3.0, bp.size))


def _same_outcome(fn, oracle, *args):
    """fn and oracle return equal bits, or both raise ArgumentRangeError;
    returns whether they raised."""
    try:
        want = oracle(*args)
    except ArgumentRangeError:
        with pytest.raises(ArgumentRangeError):
            fn(*args)
        return True
    got = fn(*args)
    assert type(got) is type(want) and np.array_equal(got, want), args
    return False


class TestExactEntryOracle:
    def test_periodic_part_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            k = _random_kernel(rng)
            ends = np.append(k.breakpoints, 1.0)
            shifts = rng.integers(-5, 6, ends.size).astype(float)
            on_jumps = ends + shifts  # u lands exactly on a breakpoint or at 1
            t = np.concatenate([
                on_jumps,
                np.nextafter(on_jumps, np.inf),
                np.nextafter(on_jumps, -np.inf),
                rng.uniform(-3.0, 3.0, 20),
                rng.uniform(-1e12, 1e12, 5),
                [0.0, -0.0, -1e-20, 1.0 - 2.0**-53, -1.0],  # -1e-20 reduces to u = 1.0
            ])
            assert np.array_equal(k.periodic_part(t), _periodic_part_oracle(k, t))
            for v in t[::7]:
                got, want = k.periodic_part(float(v)), _periodic_part_oracle(k, float(v))
                assert type(got) is float and got == want, v

    def test_rect_integral_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        raised = 0
        for _ in range(3000):
            k = _random_kernel(rng)
            eps = float(10.0 ** rng.uniform(-12.0, 0.0))
            scale = float(10.0 ** rng.uniform(-12.0, 0.5))
            x0, y0 = (float(v) * scale for v in rng.uniform(-3.0, 3.0, 2))
            x1 = x0 + float(rng.uniform(1e-6, 2.0)) * scale
            y1 = y0 + float(rng.uniform(1e-6, 2.0)) * scale
            raised += _same_outcome(rect_integral, _rect_integral_oracle, k, eps, x0, x1, y0, y1)
        assert 0 < raised < 3000  # both outcomes are exercised
        # each corner in turn lands on a breakpoint phase, one ulp either side
        # of it, or reduces to u = 1.0; eps is a power of two, so c*eps/eps == c
        for _ in range(100):
            k = _random_kernel(rng)
            ends = np.append(k.breakpoints, 1.0) + rng.integers(-5, 6, k.breakpoints.size + 1)
            phases = np.concatenate([ends, np.nextafter(ends, np.inf),
                                     np.nextafter(ends, -np.inf), [-1e-20]])
            for c in phases.tolist():
                for eps in (1.0, 2.0**-10):
                    ce = c * eps
                    w, h = (float(v) * eps for v in rng.uniform(1e-3, 1.5, 2))
                    for rect in ((ce - w, ce, 0.0, h), (ce - w, ce, -h, 0.0),
                                 (ce, ce + w, 0.0, h), (ce, ce + w, -h, 0.0)):
                        assert not _same_outcome(rect_integral, _rect_integral_oracle, k, eps, *rect)

    @pytest.mark.parametrize("n", [8, 20, 256, 4096])
    def test_cell_matrix_row_matches_oracle_bit_for_bit(self, n):
        # the jumps of the first kernel, at 1/4 and 3/4, fall on the n = 8 grid
        rng = np.random.default_rng(n)
        kernels = [make_lambda_kernel(1.0, 2.0, 0.5)] + [_random_kernel(rng) for _ in range(3)]
        for k in kernels:
            row = build_cell_matrix(k, n).first_row.tolist()
            for j, got in enumerate(row):
                want = n * n * _rect_integral_oracle(k, 1.0, 0.0, 1.0 / n, j / n, (j + 1) / n)
                assert got == want, (n, j)

    def test_range_check_just_inside_and_outside(self):
        # the largest corner steps across PERIODIC_REDUCTION_RANGE ulp by ulp,
        # from either sign and at scales where dividing by eps rounds
        k = make_lambda_kernel(2.5, 0.7, 0.3)
        outcomes = set()
        for eps in (1.0, 1e-3, 2.0**-10, 1e-12, 0.37):
            edge = PERIODIC_REDUCTION_RANGE * eps
            for j in range(-4, 5):
                c = edge * (1.0 + j * 2.0**-52)
                h = 0.25 * eps
                for rect in ((c - h, c, 0.0, h), (0.0, h, c - h, c),
                             (-c, -c + h, 0.0, h), (0.0, h, -c, -c + h)):
                    outcomes.add(_same_outcome(rect_integral, _rect_integral_oracle, k, eps, *rect))
        assert outcomes == {True, False}


class TestEvaluate:
    def test_constant_function_matches_rect_oracle(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for eps in (0.17, 1.0 / 3.0, 0.04):
            rep = evaluate(StepFunction.constant(0.4), INF_POT, k, eps)
            assert rep.value == pytest.approx(rect_integral(k, eps, 0, 1, 0, 1), abs=1e-14)
            assert rep.method == "exact"
            assert rep.bound == 0.0

    def test_constant_function_whole_periods_gives_mean(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for m in (3, 8, 17, 256):
            rep = evaluate(StepFunction.constant(0.0), INF_POT, k, 1.0 / m)
            assert rep.value == pytest.approx(integrate(k), abs=1e-12)

    def test_half_gap_is_infinite(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        rep = evaluate(StepFunction([0.0, 0.5], [0.0, 0.5]), INF_POT, k, 0.1)
        assert rep.value == math.inf

    def test_recovery_profile_hits_cell_minimum(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / 256.0)
        rep = evaluate(u, INF_POT, k, 1.0 / 256.0)
        assert abs(rep.value - 0.625) <= 1e-2
        # whole-period evaluation reproduces the cell energy to roundoff
        assert abs(rep.value - 0.625) <= 1e-10

    def test_translation_invariance_is_exact(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.2, 0.5, 0.9], [-0.2, 0.8, -0.2, 0.8])
        shifted = StepFunction(u.breakpoints, u.values + 0.37)
        assert evaluate(u, INF_POT, k, 0.2).value == evaluate(shifted, INF_POT, k, 0.2).value

    def test_indicator_complement_symmetry_is_exact(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.2, 0.5, 0.9], [0.0, 1.0, 0.0, 1.0])
        flipped = StepFunction(u.breakpoints, 1.0 - u.values)
        assert evaluate(u, INF_POT, k, 0.13).value == evaluate(flipped, INF_POT, k, 0.13).value

    def test_constant_kernel_reduces_to_weighted_areas(self):
        # constant weight c: energy == c * sum_ij f(v_i - v_j) |I_i| |I_j|
        c = 1.7
        k = PeriodicStepKernel([0.0], [c])
        u = StepFunction([0.0, 0.2, 0.5, 0.9], [0.0, 1.0, 0.0, 1.0])
        lens = u.lengths
        w = np.array(
            [[1.0 if vi == vj else 0.0 for vj in u.values] for vi in u.values]
        )
        oracle = c * float(lens @ w @ lens)
        assert evaluate(u, INF_POT, k, 0.3).value == pytest.approx(oracle, abs=1e-15)

    def test_capped_monotone_in_cap(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.5], [0.0, 0.5])
        vals = [
            evaluate(u, TripleWellPotential(cap=M), k, 0.1).value for M in (1.0, 2.0, 4.0, 8.0)
        ]
        assert vals == sorted(vals)
        assert vals[0] < vals[-1]

    def test_capped_equals_infinite_on_admissible(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.2, 0.5, 0.9], [0.0, 1.0, 0.0, 1.0])
        ref = evaluate(u, INF_POT, k, 0.1).value
        for M in (1.0, 7.0, 100.0):
            assert evaluate(u, TripleWellPotential(cap=M), k, 0.1).value == pytest.approx(
                ref, abs=1e-12
            )

    def test_eps_validation(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            evaluate(StepFunction.constant(0.0), INF_POT, k, -1.0)

    def test_level_structure_matches_pairwise_potential(self):
        # level gaps: exact 1, 1 up to rounding, 0.5 (a tie), 1e-13 and 2.5
        u = StepFunction([0.0, 0.2, 0.4, 0.6, 0.8], [0.3, 1.3, 0.8, 0.3 + 1e-13, -0.7])
        levels = np.unique(u.values)
        pots = (INF_POT, TripleWellPotential(cap=5.0))
        for tol in (0.0, 1e-12, 0.5):
            wls, level_idx = energy._level_structure(u, pots, tol)
            expected = [[[p.value(a - b, tol) for b in levels] for a in levels] for p in pots]
            assert np.array_equal(wls, expected)
            assert np.array_equal(levels[level_idx], u.values)

    def test_interval_cap_names_stage_and_size(self, monkeypatch):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / 8.0)  # 17 intervals
        monkeypatch.setattr(util, "MAX_INTERVALS", 17)
        evaluate(u, INF_POT, k, 1.0 / 8.0)
        monkeypatch.setattr(util, "MAX_INTERVALS", 16)
        with pytest.raises(ResourceLimitError, match=r"evaluate: 17 intervals exceed the cap 16"):
            evaluate(u, INF_POT, k, 1.0 / 8.0)


class TestAdmissibility:
    """The exact evaluator is where admissibility is decided: the energy is
    finite iff every level gap of u sits on a well (0 or +-1 up to value_tol)."""

    K = make_lambda_kernel(1.0, 2.0, 0.5)

    def test_two_level_shift_equals_its_indicator(self):
        u = StepFunction([0.0, 0.4, 0.6], [0.3, 1.3, 0.3])
        chi = StepFunction(u.breakpoints, [0.0, 1.0, 0.0])
        val = evaluate(u, INF_POT, self.K, 0.1).value
        assert math.isfinite(val)
        assert val == evaluate(chi, INF_POT, self.K, 0.1).value

    def test_constant_is_finite_at_every_level(self):
        ref = evaluate(StepFunction.constant(0.0), INF_POT, self.K, 0.17).value
        assert math.isfinite(ref)
        for z in (0.7, -3.2, 1e6):
            assert evaluate(StepFunction.constant(z), INF_POT, self.K, 0.17).value == ref

    def test_three_levels_are_infinite(self):
        u = StepFunction([0.0, 0.3, 0.6], [0.0, 1.0, 2.0])
        assert evaluate(u, INF_POT, self.K, 0.1).value == math.inf
        assert math.isfinite(evaluate(u, TripleWellPotential(cap=4.0), self.K, 0.1).value)

    def test_noise_inside_value_tol_is_admissible(self):
        u = StepFunction([0.0, 0.5], [0.3, 1.3 + 1e-13])
        chi = StepFunction(u.breakpoints, [0.0, 1.0])
        ref = evaluate(chi, INF_POT, self.K, 0.1).value
        assert evaluate(u, INF_POT, self.K, 0.1, value_tol=1e-12).value == ref
        for tol in (0.0, 1e-14):
            assert evaluate(u, INF_POT, self.K, 0.1, value_tol=tol).value == math.inf

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
    def test_bad_value_tol_is_refused(self, tol):
        # a NaN tolerance once snapped no level and returned inf for an admissible u
        u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / 64.0)
        assert evaluate(u, INF_POT, self.K, 1.0 / 64.0, value_tol=0.0).value == pytest.approx(0.625)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            evaluate(u, INF_POT, self.K, 1.0 / 64.0, value_tol=tol)

    def test_off_well_level_on_a_tiny_interval_is_infinite(self):
        u = StepFunction([0.0, 0.5, 0.5 + 1e-12], [0.0, 0.5, 1.0])
        assert evaluate(u, INF_POT, self.K, 0.1).value == math.inf

    def test_finite_iff_levels_fit_two_adjacent_wells(self):
        # dyadic levels, so every gap is exact and value_tol 0 decides alone
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            z = int(rng.integers(-16, 17)) / 8.0
            cands = [z, z + 1.0, z + int(rng.integers(-8, 9)) / 4.0]
            m = int(rng.integers(1, 6))
            vals = np.array(cands)[rng.integers(0, 3, m)]
            bp = np.arange(m) / m
            levels = np.unique(vals)
            admissible = levels.size == 1 or (levels.size == 2 and levels[1] - levels[0] == 1.0)
            val = evaluate(StepFunction(bp, vals), INF_POT, self.K, 0.1, value_tol=0.0).value
            assert math.isfinite(val) == admissible
            seen.add(admissible)
        assert seen == {True, False}

    def test_capped_off_well_cost_matches_weighted_areas(self):
        # constant weight c: energy == c * sum_ij f(v_i - v_j) |I_i| |I_j|,
        # with f = 1 at 0, 0 at +-1 and the cap M anywhere else
        c, M = 1.7, 3.0
        k = PeriodicStepKernel([0.0], [c])
        u = StepFunction([0.0, 0.25, 0.5, 0.75], [0.0, 1.0, 2.0, 0.5])

        def f(d):
            return 1.0 if d == 0.0 else 0.0 if abs(d) == 1.0 else M

        w = np.array([[f(vi - vj) for vj in u.values] for vi in u.values])
        oracle = c * float(u.lengths @ w @ u.lengths)
        val = evaluate(u, TripleWellPotential(cap=M), k, 0.3).value
        assert val == pytest.approx(oracle, abs=1e-14)


class TestSharedCircleSum:
    """``evaluate_potentials`` scores one u against several potentials with
    one circle sum; every report equals that of ``evaluate`` bit for bit."""

    WEIGHTS = ((1.0, 2.0, 0.5), (2.5, 0.7, 0.3), (0.6, 2.9, 0.77))

    def test_deviation_profiles_match_one_potential_at_a_time(self):
        # the uncapped potential makes every deviation infinite, the caps finite
        pots = [INF_POT] + [TripleWellPotential(cap=M) for M in DEFAULT_M_GRID]
        for weight in self.WEIGHTS:
            k = make_lambda_kernel(*weight)
            for eps in (1.0 / 32.0, 0.07):
                for u in DEVIATION_PROFILES:
                    reports = evaluate_potentials(u, pots, k, eps)
                    assert reports == [evaluate(u, p, k, eps) for p in pots], (weight, eps)
                    assert reports[0].value == math.inf
                    assert all(math.isfinite(r.value) for r in reports[1:])

    def test_random_profiles_kernels_and_caps_match_one_potential_at_a_time(self):
        rng = np.random.default_rng(20261019)
        offsets = np.array([0.0, 1.0, -1.0, 0.5, 2.0])
        mixed = 0
        for case in range(200):
            inner = np.unique(np.round(rng.uniform(0.05, 0.95, rng.integers(0, 4)), 3))
            bp = np.concatenate([[0.0], inner])
            k = PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))
            ends = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1.0, rng.integers(0, 30))]))
            # offsets 0 and +-1 keep u admissible; 0.5 and 2 usually do not
            L = int(rng.integers(1, offsets.size + 1))
            z = float(rng.uniform(-1.0, 1.0))
            u = StepFunction(ends, z + rng.choice(offsets[:L], ends.size))
            caps = rng.uniform(1.0, 50.0, rng.integers(0, 6))
            pots = [TripleWellPotential(cap=float(c)) for c in caps]
            pots.insert(int(rng.integers(0, len(pots) + 1)), INF_POT)
            eps = 1.0 / float(rng.uniform(1.0, 500.0))
            reports = evaluate_potentials(u, pots, k, eps)
            assert reports == [evaluate(u, p, k, eps) for p in pots], case
            finite = [math.isfinite(r.value) for r in reports]
            mixed += any(finite) and not all(finite)
        assert mixed > 20  # inf and finite reports from one call

    def test_only_infinite_potentials_run_no_circle_sum(self, monkeypatch):
        def no_circle_sum(*args, **kwargs):
            raise AssertionError("circle sum run for infinite energies")

        monkeypatch.setattr(energy, "circle_field", no_circle_sum)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = DEVIATION_PROFILES[0]
        reports = evaluate_potentials(u, [INF_POT, INF_POT], k, 0.1)
        assert [r.value for r in reports] == [math.inf] * 2
        assert evaluate_potentials(u, [], k, 0.1) == []
        assert evaluate(u, INF_POT, k, 0.1).value == math.inf

    @pytest.mark.parametrize("M_grid", [(3.0,), DEFAULT_M_GRID, tuple(1.0 + 0.75 * np.arange(40))])
    def test_fM_threshold_runs_one_circle_sum_per_profile(self, monkeypatch, M_grid):
        calls = []
        circle_field = energy.circle_field

        def counted(*args, **kwargs):
            calls.append(1)
            return circle_field(*args, **kwargs)

        monkeypatch.setattr(energy, "circle_field", counted)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        cert = fM_threshold_experiment(1.0, 2.0, 0.5, eps=0.125, M_grid=M_grid)
        assert len(calls) == 1 + len(DEVIATION_PROFILES)
        monkeypatch.setattr(energy, "circle_field", circle_field)
        rows = cert.payload["rows"]
        assert [r["M"] for r in rows] == list(M_grid)
        for row in rows:
            pot = TripleWellPotential(cap=row["M"])
            assert row["deviation_energies"] == [
                evaluate(u, pot, k, 0.125).value for u in DEVIATION_PROFILES
            ]


class TestErrorBudget:
    """The recovery profile on whole-period grids has energy exactly equal to
    the limit, so |E - limit| is the evaluator's rounding error at that P."""

    KERNELS = ((1.0, 2.0, 0.5), (2.5, 0.7, 0.3))

    def test_whole_period_grids_hit_the_limit(self):
        for alpha, beta, lam in self.KERNELS:
            k = make_lambda_kernel(alpha, beta, lam)
            limit = gamma_limit_constant_value(alpha, beta, lam)
            for m in (2**14, 2**16):
                u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / m)
                assert u.values.size == 2 * m + 1
                value = evaluate(u, INF_POT, k, 1.0 / m).value
                assert abs(value - limit) <= 1e-12 * limit, (alpha, beta, lam, m, value)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 60, reason="numpy's long double is plain double here"
    )
    def test_non_dyadic_grid_stays_at_rounding_level(self):
        # 1/eps = 1e5 is whole but eps is not a dyadic float; with double
        # prefix sums the error here was 5.6e-13
        m = 10**5
        for alpha, beta, lam in self.KERNELS:
            k = make_lambda_kernel(alpha, beta, lam)
            limit = gamma_limit_constant_value(alpha, beta, lam)
            u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / m)
            value = evaluate(u, INF_POT, k, 1.0 / m).value
            assert abs(value - limit) <= 1e-14 * limit, (alpha, beta, lam, value)

    def test_non_whole_grid_stays_in_jitter_envelope(self):
        # With N = floor(1/eps) whole periods filling [0, N eps), the energy
        # on that square is (N eps)^2 * limit; the rest of the unit square
        # has area 1 - (N eps)^2 and an integrand in [0, a_max].
        inv_eps = 2.0**16 + 0.5
        for alpha, beta, lam in self.KERNELS:
            k = make_lambda_kernel(alpha, beta, lam)
            limit = gamma_limit_constant_value(alpha, beta, lam)
            covered = math.floor(inv_eps) / inv_eps
            envelope = (1.0 - covered**2) * max(limit, max(alpha, beta) - limit) + 1e-12 * limit
            u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / inv_eps)
            value = evaluate(u, INF_POT, k, 1.0 / inv_eps).value
            assert abs(value - limit) <= envelope


class TestQuadrature:
    def test_self_consistency_flat(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        exact = evaluate(StepFunction.constant(0.0), INF_POT, k, 0.125)
        quad = evaluate_quadrature(StepFunction.constant(0.0), INF_POT, k, 0.125, n=4096)
        assert abs(exact.value - quad.value) <= quad.bound
        assert quad.method == "quadrature"

    def test_constant_kernel_is_exact(self):
        k = PeriodicStepKernel([0.0], [1.7])
        u = StepFunction([0.0, 0.3, 0.8], [0.0, 1.0, 0.0])
        exact = evaluate(u, INF_POT, k, 0.2)
        quad = evaluate_quadrature(u, INF_POT, k, 0.2, n=64)
        assert abs(exact.value - quad.value) <= 1e-12
        assert abs(exact.value - quad.value) <= quad.bound

    def test_step_function_capped(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.5], [1.0, 0.0])
        exact = evaluate(u, TripleWellPotential(cap=10.0), k, 1.0 / 16.0)
        quad = evaluate_quadrature(u, TripleWellPotential(cap=10.0), k, 1.0 / 16.0, n=4096)
        assert abs(exact.value - quad.value) <= quad.bound

    def test_infinite_and_inadmissible_rejected(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.5], [0.0, 0.5])
        with pytest.raises(ValueError):
            evaluate_quadrature(u, INF_POT, k, 0.1, n=64)

    def test_grid_cap_checked_before_allocation(self, monkeypatch):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ResourceLimitError, match=r"evaluate_quadrature: up to \d+ grid cells"):
            evaluate_quadrature(u, INF_POT, k, 0.1, n=10**12)
        monkeypatch.setattr(util, "MAX_INTERVALS", 66)
        evaluate_quadrature(u, INF_POT, k, 0.1, n=64)
        with pytest.raises(ResourceLimitError, match=r"up to 67 grid cells \(n = 65\)"):
            evaluate_quadrature(u, INF_POT, k, 0.1, n=65)

    def test_n_validation(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            evaluate_quadrature(StepFunction.constant(0.0), INF_POT, k, 0.1, n=1)

    def test_eps_range_guard_matches_evaluate(self):
        # one check, kernel.check_reduction, for both evaluators, the
        # rectangle integral and the single integral: the exact evaluator
        # refuses 1/eps = 1e13, so no other caller may answer there either
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        u = StepFunction([0.0, 0.5], [0.0, 1.0])
        callers = (
            lambda eps: evaluate(u, INF_POT, k, eps),
            lambda eps: evaluate_quadrature(u, INF_POT, k, eps, n=16),
            lambda eps: rect_integral(k, eps, 0, 1, 0, 1),
            lambda eps: k.integral(0.0, 1.0, eps),
        )
        for fn in callers:
            with pytest.raises(ArgumentRangeError, match="periodic reduction range 1e"):
                fn(1e-13)
            for eps in (0.0, -1.0, -math.inf, math.nan, math.inf):
                with pytest.raises(ValueError, match="eps must be positive"):
                    fn(eps)

    def test_randomized_agreement_within_bound(self):
        rng = np.random.default_rng(11)
        for i in range(10):
            nseg = int(rng.integers(1, 5))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, nseg - 1))]) if nseg > 1 else np.array([0.0])
            bp = bp[np.concatenate([[True], np.diff(bp) > 1e-3])] if nseg > 1 else bp
            k = PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))
            ubp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 3))])
            z = float(rng.uniform(-1, 1))
            u = StepFunction(ubp, z + rng.integers(0, 2, 4).astype(float))
            eps = float(rng.uniform(1.0 / 64.0, 0.3))
            exact = evaluate(u, INF_POT, k, eps)
            quad = evaluate_quadrature(u, INF_POT, k, eps, n=1024)
            assert abs(exact.value - quad.value) <= quad.bound


def _random_spaced_kernel(rng):
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
    (wl,), level_idx = energy._level_structure(u, [p], 1e-12)
    ends = u.endpoints
    terms = []
    for i in range(u.values.size):
        for j in range(u.values.size):
            w = wl[level_idx[i], level_idx[j]]
            if w != 0.0:
                terms.append(w * rect_integral(k, eps, ends[i], ends[i + 1], ends[j], ends[j + 1]))
    return math.fsum(terms)


def _pair_args(u, pots, k, eps):
    wl, level_idx = energy._level_structure(u, pots, 1e-12)
    return (u.endpoints, u.lengths, level_idx, wl, k, eps)


class TestPairEnergyOracle:
    def test_matches_rectangle_sum(self):
        rng = np.random.default_rng(20261017)
        levels = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 0.25])
        for case in range(40):
            k = _random_spaced_kernel(rng)
            P = int(rng.integers(1, 201)) if case % 8 == 0 else int(rng.integers(1, 41))
            L = int(rng.integers(1, 7))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, P - 1))])
            bp = bp[np.concatenate([[True], np.diff(bp) > 0])]
            z = float(rng.uniform(-1.0, 1.0))
            u = StepFunction(bp, z + rng.choice(levels[:L], bp.size))
            pots = [TripleWellPotential(cap=float(c)) for c in rng.uniform(1.0, 20.0, 2)]
            eps = 1.0 / _random_inv_eps(rng)
            # one call scores the stack of both caps' level weight matrices
            for fast, p in zip(energy.pair_energy(*_pair_args(u, pots, k, eps)), pots):
                oracle = _rect_sum(u, p, k, eps)
                assert abs(fast - oracle) <= 1e-13 * abs(oracle), (case, fast, oracle)

    def test_endpoint_measures_match_scattered_construction_bit_for_bit(self, monkeypatch):
        # D[l] is -1 at the left and +1 at the right end of each interval on
        # level l, as the scatter D[level_idx, arange(P)] = -1, then
        # D[level_idx, arange(1, P + 1)] += 1 built it
        seen = []
        field = energy.circle_field
        monkeypatch.setattr(
            energy, "circle_field", lambda t, w, *a: seen.append(w.copy()) or field(t, w, *a)
        )
        rng = np.random.default_rng(33)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for case in range(60):
            P, L = int(rng.integers(1, 200)), int(rng.integers(1, 7))
            level_idx = rng.integers(0, L, P)
            lengths = np.full(P, 1.0 / P)
            endpoints = np.arange(P + 1) / P
            energy.pair_energy(endpoints, lengths, level_idx, np.ones((1, L, L)), k, 1.0 / 7.3)
            D = np.zeros((L, P + 1))
            D[level_idx, np.arange(P)] = -1.0
            D[level_idx, np.arange(1, P + 1)] += 1.0
            assert seen[-1].tobytes() == D.tobytes(), case


def _direct_quadrature(centers, lengths, iu, w, k, eps):
    """O(C^2) oracle: the midpoint sum with the weight evaluated pair by pair."""
    a = k.eval((centers[:, None] - centers[None, :]) / eps)
    return float(lengths @ ((a * w[iu[:, None], iu[None, :]]) @ lengths))


class TestQuadratureOracle:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            k = _random_spaced_kernel(rng)
            C = int(rng.integers(2, 601))
            centers = np.sort(rng.uniform(0.0, 1.0, C))
            lengths = rng.uniform(0.5, 1.5, C)
            lengths /= lengths.sum()
            L = int(rng.integers(1, 4))
            iu = rng.integers(0, L, C)
            w = rng.uniform(0.0, 5.0, (L, L))
            w = 0.5 * (w + w.T)
            eps = 1.0 / _random_inv_eps(rng)
            fast = energy.quadrature_energy(centers, lengths, iu, w, k, eps)
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
        fast = energy.quadrature_energy(centers, lengths, iu, w, k, 1.0)
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
        (wl,), level_idx = energy._level_structure(u, [p], 1e-12)
        iu = level_idx[np.searchsorted(u.breakpoints, centers, side="right") - 1]
        direct = _direct_quadrature(centers, lengths, iu, wl, k, eps)
        assert abs(quad.value - exact) <= quad.bound
        assert abs(direct - exact) <= quad.bound


def _distinct_phases(x, eps):
    return np.unique(energy.phases(x, eps)).size


def _random_arcs(rng, count):
    """count disjoint arcs of the unit cell, ends on the 1/64 grid."""
    ends = np.sort(rng.choice(np.arange(64), 2 * count, replace=False)) / 64.0
    return [(float(a), float(b)) for a, b in ends.reshape(-1, 2)]


def _kernel_without_jump_at_zero(rng):
    """A random weight whose last segment has the value of its first, so a
    difference that is a whole number of periods is not a tie."""
    k = _random_spaced_kernel(rng)
    values = k.values.copy()
    values[-1] = values[0]
    return PeriodicStepKernel(k.breakpoints, values)


class TestRepeatedPhases:
    """Periodic profiles and grids commensurate with eps put many entries at
    one phase; circle_field evaluates each distinct phase once."""

    def test_periodic_profile_matches_rectangle_sum(self):
        rng = np.random.default_rng(20261019)
        p = TripleWellPotential()
        for count in (1, 2, 3):
            top = 120 // count  # at most ~2 * count * top + 2 = 242 intervals
            for kind in ("whole", "half", "jitter"):
                for kern in (make_lambda_kernel(*rng.uniform(0.5, 3.0, 2), rng.uniform(0.1, 0.9)),
                             _random_spaced_kernel(rng)):
                    m = int(rng.integers(2, top))
                    inv_eps = {"whole": m, "half": m + 0.5, "jitter": m + rng.uniform(0.1, 0.9)}[kind]
                    eps = 1.0 / inv_eps
                    u = oscillating_profile(float(rng.uniform(-1.0, 1.0)), _random_arcs(rng, count), eps)
                    assert u.values.size <= 250
                    case = (count, kind, inv_eps)
                    assert _distinct_phases(u.endpoints, eps) < u.endpoints.size, case
                    (fast,) = energy.pair_energy(*_pair_args(u, [p], kern, eps))
                    oracle = _rect_sum(u, p, kern, eps)
                    assert abs(fast - oracle) <= 1e-13 * abs(oracle), (case, fast, oracle)

    @pytest.mark.parametrize("n, eps", [(512, 1.0 / 16.0), (480, 0.05), (600, 1.0 / 24.0),
                                        (300, 7.0 / 300.0)])
    def test_commensurate_grid_matches_direct_sum(self, n, eps):
        rng = np.random.default_rng(n)
        lengths = np.full(n, 1.0 / n)
        centers = (np.arange(n) + 0.5) / n
        assert _distinct_phases(centers, eps) < n
        for case in range(5):
            k = _kernel_without_jump_at_zero(rng)
            L = int(rng.integers(1, 4))
            iu = rng.integers(0, L, n)
            w = rng.uniform(0.0, 5.0, (L, L))
            w = 0.5 * (w + w.T)
            fast = energy.quadrature_energy(centers, lengths, iu, w, k, eps)
            direct = _direct_quadrature(centers, lengths, iu, w, k, eps)
            assert abs(fast - direct) <= 1e-12 * abs(direct), (case, fast, direct)

    def test_equal_phases_get_equal_entries(self):
        rng = np.random.default_rng(5)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        t = k.table
        theta = energy.phases(rng.choice(rng.uniform(0.0, 3.0, 7), 300), 1.0)
        theta[:5] = 0.0
        assert np.unique(theta).size == 8
        weights = rng.normal(size=(2, theta.size))
        # phase 0.6 with weights a, -a, b, -b, which merge to exactly 0
        a, b = rng.normal(size=(2, 2))
        cancel = (np.append(theta, [0.6] * 4),
                  np.concatenate([weights, np.stack([a, -a, b, -b], axis=1)], axis=1))
        assert not np.any(np.bincount(np.zeros(4, dtype=np.int64), weights=cancel[1][0, -4:]))
        # one phase held by more than 2^16 entries
        many = 70_000
        crowded = (np.append(theta, np.full(many, theta[7])),
                   np.concatenate([weights, rng.normal(size=(2, many))], axis=1))
        for theta, weights in ((theta, weights), cancel, crowded):
            quad = energy.circle_field(theta, weights, k.breakpoints, t.q0, t.q1, t.q2)
            const = energy.circle_field(theta, weights, k.breakpoints, k.values)
            for v in np.unique(theta):
                for F in (quad, const):
                    same = F[:, theta == v]
                    assert np.array_equal(same, np.repeat(same[:, :1], same.shape[1], axis=1)), v
                # each field against its plain sum over all entries
                diff = np.mod(v - theta, 1.0)
                direct = weights @ k.eval(diff)
                np.testing.assert_allclose(const[:, theta == v][:, 0], direct, rtol=1e-12, atol=1e-12)
                direct = weights @ k.periodic_part(diff)
                np.testing.assert_allclose(quad[:, theta == v][:, 0], direct, rtol=1e-12, atol=1e-12)


def _circle_field_searching_every_cut(theta, weights, kbp, q0, q1=None, q2=None):
    """circle_field as it was when every window end, the outer two included,
    came from its own searchsorted."""
    tu, inv = np.unique(theta, return_inverse=True)
    phi = np.concatenate([tu - 1.0, tu])
    edges = np.append(kbp, 1.0)
    cut = [np.searchsorted(phi, tu - e, side="right") for e in edges]
    quadratic = q1 is not None and (np.any(q1) or np.any(q2))
    out = np.empty((weights.shape[0], theta.size))
    for k, w in enumerate(weights):
        c = np.tile(np.bincount(inv, weights=w, minlength=tu.size), 2)
        pre0 = energy._cumsum0(c)
        if quadratic:
            c *= phi
            pre1 = energy._cumsum0(c, np.longdouble)
            c *= phi
            pre2 = energy._cumsum0(c, np.longdouble)
        F = np.zeros(tu.size)
        for s in range(edges.size - 1):
            lo, hi = cut[s + 1], cut[s]
            C0 = pre0[hi] - pre0[lo]
            if not quadratic:
                F += q0[s] * C0
                continue
            C1 = (pre1[hi] - pre1[lo]).astype(float)
            C2 = (pre2[hi] - pre2[lo]).astype(float)
            d = tu - edges[s]
            F += q0[s] * C0 + q1[s] * (d * C0 - C1) + q2[s] * (d * (d * C0 - 2.0 * C1) + C2)
        out[k] = F[inv]
    return out


class TestOuterCuts:
    """The window ends at 0 and 1 are slices, not searches: the field is
    bit-identical to the one that searched every cut."""

    def test_matches_every_cut_searched_bit_for_bit(self):
        rng = np.random.default_rng(20261020)
        kinds = ("distinct", "one phase", "crowded", "grid")
        seen = set()
        for case in range(600):
            kind = kinds[case % 4]
            P = int(rng.integers(1, 40))
            nseg = int(rng.integers(1, 7))
            if kind == "grid":
                # differences land exactly on breakpoints: ties at every cut
                x, eps = rng.integers(0, 64, P) / 64.0, 1.0
                inner = rng.choice(np.arange(1, 64), nseg - 1, replace=False) / 64.0
            else:
                x, eps = rng.uniform(0.0, 5.0, P), float(rng.uniform(0.01, 1.0))
                inner = rng.uniform(0.0, 1.0, nseg - 1)
                if kind == "one phase":
                    x[:] = x[0]
                elif kind == "crowded":
                    x[rng.random(P) < 0.6] = x[0]
            if rng.random() < 0.3:
                x[int(rng.integers(0, P))] = 0.0
            kbp = np.unique(np.concatenate([[0.0], inner]))  # [0] alone: both cuts outer
            theta = energy.phases(x, eps)
            rows = int(rng.integers(1, 7))
            weights = rng.normal(size=(rows, P)) if case % 2 else rng.choice([-1.0, 1.0], (rows, P))
            q0, q1, q2 = rng.normal(size=(3, kbp.size))
            for g in ((q0,), (q0, q1, q2)):
                fast = energy.circle_field(theta, weights, kbp, *g)
                slow = _circle_field_searching_every_cut(theta, weights, kbp, *g)
                assert np.array_equal(fast, slow), (case, kind, P, kbp.size, len(g))
            reached = {"U = 1": np.unique(theta).size == 1, "phase 0": 0.0 in theta,
                       "kbp = [0]": kbp.size == 1, "6 segments": kbp.size == 6, "6 rows": rows == 6}
            seen.update(name for name, hit in reached.items() if hit)
        assert seen == set(reached)


class TestGroup:
    """energy._group returns what np.unique(x, return_inverse=True) does,
    by a search in the distinct values when they repeat often enough and
    from the sort's permutation otherwise."""

    @staticmethod
    def _branch(monkeypatch, x):
        """_group(x), checked against np.unique, and the branch it took."""
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **kw: calls.append(1) or search(*a, **kw))
        tu, inv = energy._group(x)
        monkeypatch.undo()
        tu0, inv0 = np.unique(x, return_inverse=True)
        assert np.array_equal(tu, tu0) and np.array_equal(inv, inv0)
        assert inv.dtype == inv0.dtype and inv.shape == x.shape
        return "search" if calls else "permutation"

    def test_recovery_phases_are_searched(self, monkeypatch):
        eps = 1.0 / 4096
        u = oscillating_profile(-0.5, optimal_profile(0.5), eps)
        theta = energy.phases(u.endpoints, eps)
        assert np.unique(theta).size * energy.GROUP_SEARCH_RATIO <= theta.size
        assert self._branch(monkeypatch, theta) == "search"
        assert self._branch(monkeypatch, u.values) == "search"

    def test_all_distinct_values_take_the_permutation(self, monkeypatch):
        x = np.random.default_rng(1).uniform(0.0, 1.0, 1000)
        assert self._branch(monkeypatch, x) == "permutation"

    def test_threshold(self, monkeypatch):
        rng = np.random.default_rng(2)
        P = 50 * energy.GROUP_SEARCH_RATIO
        for U, branch in ((49, "search"), (50, "search"), (51, "permutation")):
            x = rng.permutation(np.resize(rng.uniform(-1.0, 1.0, U), P))
            assert np.unique(x).size == U
            assert self._branch(monkeypatch, x) == branch, U

    @pytest.mark.parametrize("P, branch", [(1, "permutation"), (15, "permutation"), (16, "search")])
    def test_single_value(self, monkeypatch, P, branch):
        assert self._branch(monkeypatch, np.full(P, 0.3)) == branch

    @pytest.mark.parametrize("periods", [3, 40])
    def test_signed_zero_levels(self, monkeypatch, periods):
        # 2 * periods intervals on levels 0 and 1, zeros of either sign
        bp = np.arange(2 * periods) / (2 * periods)
        values = np.tile([0.0, 1.0], periods)
        signed = values.copy()
        signed[::4] = -0.0
        assert np.signbit(signed).any() and not np.signbit(values).any()
        branch = "search" if 2 * periods >= 2 * energy.GROUP_SEARCH_RATIO else "permutation"
        assert self._branch(monkeypatch, signed) == branch
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for p in (INF_POT, TripleWellPotential(cap=3.0)):
            for eps in (1.0, 1.0 / 3.0, 1.0 / 7.3):
                a = evaluate(StepFunction(bp, values), p, k, eps).value
                b = evaluate(StepFunction(bp, signed), p, k, eps).value
                assert a == b and math.isfinite(a), (p, eps)
