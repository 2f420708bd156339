import math
from fractions import Fraction

import numpy as np
import pytest

from nlhomog import (
    ArgumentRangeError,
    PeriodicStepFunction,
    PeriodicStepKernel,
    StepFunction,
    integrate,
    make_lambda_kernel,
)
from nlhomog.kernel import PERIODIC_REDUCTION_RANGE, check_reduction


def segment_sum_mean(k):
    # independent mean oracle: explicit value * length sum
    ends = np.append(k.breakpoints, 1.0)
    return sum(v * (b1 - b0) for v, b0, b1 in zip(k.values, ends[:-1], ends[1:]))


class TestLambdaKernel:
    def test_half_lambda_layout(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        assert np.allclose(k.breakpoints, [0.0, 0.25, 0.75])
        assert np.allclose(k.values, [1.0, 2.0, 1.0])
        assert integrate(k) == pytest.approx(1.5, abs=1e-15)
        assert integrate(k) == pytest.approx(segment_sum_mean(k), abs=1e-15)

    def test_degenerate_equal_values(self):
        k = make_lambda_kernel(1.0, 1.0, 0.3)
        assert integrate(k) == pytest.approx(1.0, abs=1e-15)
        ts = np.linspace(-1, 2, 101)
        assert np.all(k.eval(ts) == 1.0)

    def test_mean_arithmetic(self):
        assert integrate(make_lambda_kernel(2.0, 1.0, 0.4)) == pytest.approx(1.4, abs=1e-15)

    def test_tiny_lambda_mean_approaches_beta(self):
        k = make_lambda_kernel(1.0, 2.0, 1e-6)
        assert abs(integrate(k) - 2.0) <= 1e-5 * abs(1.0 - 2.0) + 1e-12

    @pytest.mark.parametrize(
        "alpha,beta,lam",
        [(-1.0, 2.0, 0.5), (1.0, 0.0, 0.5), (1.0, 2.0, 0.0), (1.0, 2.0, 1.0), (1.0, 2.0, 1.5)],
    )
    def test_domain_errors(self, alpha, beta, lam):
        with pytest.raises(ValueError):
            make_lambda_kernel(alpha, beta, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_are_refused(self, bad):
        for alpha, beta in ((bad, 2.0), (1.0, bad)):
            with pytest.raises(ValueError, match="alpha and beta must be positive"):
                make_lambda_kernel(alpha, beta, 0.5)
        with pytest.raises(ValueError, match="lam must lie in"):
            make_lambda_kernel(1.0, 2.0, bad)


class TestEval:
    def test_segment_values(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        assert k.eval(0.1) == 1.0
        assert k.eval(0.5) == 2.0
        assert k.eval(-0.1) == k.eval(0.9) == 1.0

    def test_left_closed_convention(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        assert k.eval(0.25) == 2.0
        assert k.eval(0.75) == 1.0
        assert k.eval(0.0) == 1.0

    def test_periodicity_and_value_set(self):
        rng = np.random.default_rng(7)
        k = PeriodicStepKernel([0.0, 0.2, 0.45, 0.8], [1.5, 0.3, 2.2, 0.9])
        ts = rng.uniform(-5, 5, 500)
        vals = k.eval(ts)
        assert np.array_equal(vals, k.eval(ts + 1.0))
        assert set(np.unique(vals)) <= set(k.values)

    def test_lambda_kernel_symmetric_about_half(self):
        k = make_lambda_kernel(1.0, 3.0, 0.4)
        ts = np.linspace(0.01, 0.99, 197)
        ts = ts[np.all(np.abs(ts[:, None] - k.breakpoints[None, :]) > 1e-6, axis=1)]
        assert np.array_equal(k.eval(ts), k.eval(1.0 - ts))

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            PeriodicStepKernel([0.0, 0.5], [1.0, 0.0])

    def test_breakpoint_validation(self):
        # one check for all three classes; values are positive so only the
        # breakpoints (or the length mismatch) can be at fault
        bad = [
            ([], []),  # empty
            ([0.1, 0.5], [1.0, 1.0]),  # first != 0
            ([0.0, 1.0], [1.0, 1.0]),  # last >= 1
            ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0]),  # not strictly increasing
            ([0.0, 0.6, 0.4], [1.0, 1.0, 1.0]),
            ([0.0, 0.5], [1.0]),  # length mismatch
        ]
        for cls in (StepFunction, PeriodicStepFunction, PeriodicStepKernel):
            for bp, vals in bad:
                with pytest.raises(ValueError):
                    cls(bp, vals)


class TestSecondAntiderivative:
    def test_constant_kernel_has_no_periodic_part(self):
        k = PeriodicStepKernel([0.0], [3.0])
        assert k.periodic_part(0.37) == 0.0
        assert k.periodic_part(2.4) == 0.0
        assert (k.table.mean, k.table.b1) == (3.0, 0.0)

    def test_periodic_part_is_periodic(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        ts = np.linspace(0.0, 1.0, 53)
        assert np.allclose(k.periodic_part(ts), k.periodic_part(ts + 1.0), atol=1e-14)
        assert np.allclose(k.periodic_part(ts), k.periodic_part(ts - 3.0), atol=1e-13)

    def test_periodic_part_vanishes_at_integers(self):
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        for t in (0.0, 1.0, -4.0, 17.0):
            assert k.periodic_part(t) == 0.0

    def test_second_difference_recovers_weight(self):
        # finite-difference oracle: (B(t+h) - 2B(t) + B(t-h)) / h^2 -> a(t)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        h = 1e-4

        def B(t):
            return 0.5 * k.table.mean * t * t + k.table.b1 * t + k.periodic_part(t)

        fd2 = (B(0.1 + h) - 2.0 * B(0.1) + B(0.1 - h)) / h**2
        assert abs(fd2 - 1.0) <= 1e-3

    def test_second_difference_random_kernels(self):
        rng = np.random.default_rng(42)
        h = 1e-4
        for _ in range(5):
            nseg = rng.integers(2, 6)
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, nseg - 1))])
            bp = bp[np.concatenate([[True], np.diff(bp) > 0.02])]
            k = PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))

            def B(t):
                return 0.5 * k.table.mean * t * t + k.table.b1 * t + k.periodic_part(t)

            max_a = float(np.max(k.values))
            for t in rng.uniform(0.0, 1.0, 40):
                # interior of a segment only: the bound is stated away from jumps
                if np.min(np.abs((t % 1.0) - np.append(bp, 1.0))) < 2 * h:
                    continue
                fd2 = (B(t + h) - 2.0 * B(t) + B(t - h)) / h**2
                assert abs(fd2 - k.eval(t)) <= 10.0 * h * max_a


    def test_scalar_path_matches_array_path_bit_for_bit(self):
        # a Python float takes the list path, an array the numpy path; both
        # must give the same bits, on breakpoints and far from the origin too
        rng = np.random.default_rng(7)
        for _ in range(20):
            pieces = int(rng.integers(1, 9))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, pieces - 1))])
            k = PeriodicStepFunction(bp, rng.uniform(-2.0, 3.0, bp.size))  # signed
            ts = np.concatenate([
                rng.uniform(-3.0, 3.0, 40),
                rng.uniform(-1.0, 1.0, 20) * 10.0 ** rng.uniform(0.0, 12.0, 20),
                k.breakpoints, k.breakpoints - 2.0, [0.0, -0.0, 1.0, -1.0],
            ])
            want = k.periodic_part(ts)
            for t, w in zip(ts.tolist(), want.tolist()):
                got = k.periodic_part(t)
                assert type(got) is float
                assert got == w and math.copysign(1.0, got) == math.copysign(1.0, w), t


def _exact_integral(f, x0, x1, eps):
    """Oracle: the integral of f(x/eps) over [x0, x1] in rational arithmetic,
    from whole periods and a partial sum of value * length."""
    ends = [Fraction(b) for b in f.endpoints]
    vals = [Fraction(v) for v in f.values]
    mean = sum(v * (b1 - b0) for v, b0, b1 in zip(vals, ends, ends[1:]))

    def primitive(t):  # integral of f over [0, t]
        whole = math.floor(t)
        u = t - whole
        return whole * mean + sum(
            v * max(Fraction(0), min(u, b1) - b0) for v, b0, b1 in zip(vals, ends, ends[1:])
        )

    e = Fraction(eps)
    return e * (primitive(Fraction(x1) / e) - primitive(Fraction(x0) / e))


class TestPeriodicIntegral:
    """PeriodicStepFunction.integral against exact rational integrals."""

    @pytest.mark.parametrize("kind", ["whole", "fractional", "jittered"])
    def test_matches_exact_rational_integral(self, kind):
        rng = np.random.default_rng({"whole": 11, "fractional": 12, "jittered": 13}[kind])
        for _ in range(30):
            pieces = int(rng.integers(1, 11))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, pieces - 1))])
            f = PeriodicStepFunction(bp, rng.uniform(-2.0, 3.0, bp.size))  # signed
            m = int(10 ** rng.uniform(0.0, 6.0))
            inv_eps = {"whole": m, "fractional": m + rng.uniform(0.01, 0.99),
                       "jittered": m + 5e-13}[kind]
            eps = 1.0 / inv_eps
            x = np.sort(rng.uniform(-1.0, 1.0, (2, 8)), axis=0)
            got = f.integral(x[0], x[1], eps)
            # roundoff bound: ~18 ulps of max|f| over |x| <= 1 (worst seen 3.6e-16)
            bound = 4e-15 * np.max(np.abs(f.values))
            for g, x0, x1 in zip(got, x[0], x[1]):
                assert abs(g - float(_exact_integral(f, x0, x1, eps))) <= bound

    def test_scalar_whole_line_is_the_mean(self):
        f = PeriodicStepFunction([0.0, 0.3, 0.7], [2.0, -1.0, 0.5])
        assert f.integral(0.0, 1.0, 1.0) == pytest.approx(0.35, abs=1e-15)
        assert f.integral(0.0, 1.0, 1.0 / 1.5e6) == pytest.approx(0.35, abs=1e-15)

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bad_eps_refused(self, eps):
        # the message tells this refusal from the range check's ArgumentRangeError,
        # also a ValueError, which eps = 0 would otherwise reach
        f = PeriodicStepFunction([0.0, 0.3], [1.0, -2.0])
        with pytest.raises(ValueError, match=r"^eps must be positive$"):
            f.integral(0.0, 0.5, eps)

    def test_argument_range_guard(self):
        f = PeriodicStepFunction([0.0, 0.3], [1.0, -2.0])
        with pytest.raises(ArgumentRangeError):
            f.integral(0.0, 1.0, 1.0 / 2e12)
        with pytest.raises(ArgumentRangeError):
            f.integral(np.array([0.0, -3.0]), np.array([1.0, 0.0]), 1e-12)


    def test_check_reduction_edges(self):
        # the range is inclusive; eps is judged before the reach, so eps = 0
        # with reach 0 is a bad eps, not a range overflow
        check_reduction(1.0, PERIODIC_REDUCTION_RANGE)
        check_reduction(0.5, 0.0)
        with pytest.raises(ArgumentRangeError):
            check_reduction(1.0, math.nextafter(PERIODIC_REDUCTION_RANGE, math.inf))
        for reach in (math.nan, math.inf):
            with pytest.raises(ArgumentRangeError):
                check_reduction(0.5, reach)
        for eps in (0.0, -0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^eps must be positive$"):
                check_reduction(eps, 0.0)

    @pytest.mark.parametrize("x0, x1", [(math.nan, 1.0), (0.5, math.nan),
                                        (np.array([0.0, math.nan]), np.array([1.0, 0.5]))])
    def test_nan_bound_refused(self, x0, x1):
        # a NaN compares False with the range, so only a negated <= refuses it
        f = PeriodicStepFunction([0.0, 0.3], [1.0, -2.0])
        with pytest.raises(ArgumentRangeError):
            f.integral(x0, x1, 0.5)


class TestSerialization:
    def test_round_trip(self):
        k = PeriodicStepKernel([0.0, 0.2, 0.45, 0.8], [1.5, 0.3, 2.2, 0.9])
        k2 = PeriodicStepKernel.from_json(k.to_json())
        assert np.array_equal(k.breakpoints, k2.breakpoints)
        assert np.array_equal(k.values, k2.values)
        # the inherited from_json builds the calling class
        assert type(k2) is PeriodicStepKernel
        ts = np.linspace(-2.0, 3.0, 401)
        assert np.array_equal(k2.eval(ts), k.eval(ts))
        assert np.array_equal(k2.periodic_part(ts), k.periodic_part(ts))
        assert type(PeriodicStepFunction.from_json(k.to_json())) is PeriodicStepFunction
