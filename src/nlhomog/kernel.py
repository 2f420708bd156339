"""1-periodic piecewise-constant weights and their exact antiderivatives.

A weight ``a`` is stored as segments ``[b_i, b_{i+1})`` with constant value
``v_i`` on each, extended 1-periodically to the whole line. Double integrals
of ``a((x-y)/eps)`` over rectangles reduce to corner evaluations of the second
antiderivative ``B`` of ``a``, which we keep in the decomposed form

    B(t) = mean * t^2 / 2 + b1 * t + B_per(t),

where ``B_per`` is 1-periodic and bounded. ``table`` holds ``mean`` and
``b1`` and ``periodic_part`` evaluates ``B_per``; ``B`` itself is never
formed. The quadratic part of the four corner terms of a rectangle
telescopes to ``mean * area`` and the linear part to zero, so
``energy.rect_integral`` (four ``periodic_part`` calls) and the circle sum
of ``energy.pair_energy`` (the per-segment coefficients) read only ``mean``
and ``B_per``. That keeps the computation exact (up to roundoff) even when
corner arguments grow like ``1/eps``; subtracting raw ``B`` values would
lose one digit per decade of ``1/eps``. Single integrals of ``f(x/eps)`` use
the same trick one order down: the slope of ``B_per`` carries all of the
antiderivative but its linear part, so no period is ever enumerated.

Periodic reduction keeps its precision only up to
``PERIODIC_REDUCTION_RANGE``; ``check_reduction`` is the one check of that
range and of eps, and every evaluator in ``energy`` and ``integral`` here
calls it before any reduction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .states import StepFunction
from .util import ArgumentRangeError

# Beyond this the fractional part of a float64 argument has fewer than ~4
# significant digits left, so periodic reduction t - floor(t) is meaningless.
PERIODIC_REDUCTION_RANGE = 1e12


def check_reduction(eps: float, reach: float) -> None:
    """Refuse an eps outside (0, inf), then arguments up to ``reach`` in
    modulus whose reduction x/eps would leave ``PERIODIC_REDUCTION_RANGE``;
    a NaN reach fails the negated comparison and is refused too."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive")
    if not reach / eps <= PERIODIC_REDUCTION_RANGE:
        raise ArgumentRangeError(
            f"|x|/eps exceeds the periodic reduction range {PERIODIC_REDUCTION_RANGE:g}"
        )


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly: Dekker's TwoProduct with
    Veltkamp's split (Numer. Math. 1971); numpy has no fused multiply-add."""
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1: halves of 26 bits
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class PeriodicStepFunction(StepFunction):
    """Real-valued step function on the unit circle (no sign restriction).

    A ``StepFunction`` on [0, 1) (same storage, checks and JSON form)
    extended 1-periodically: ``eval`` reduces its argument mod 1 first.
    Segments are left-closed/right-open; the value at a breakpoint comes from
    the segment starting there, which makes evaluation deterministic.
    ``table`` holds its exact antiderivative data.
    """

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        self.table = _build_antiderivative_table(self.breakpoints, self.values)
        # the breakpoints and B_per coefficients as Python floats, for scalars
        t = self.table
        self._scalar_table = tuple(a.tolist() for a in (self.breakpoints, t.q0, t.q1, t.q2))

    def _locate(self, t):
        """Segment index of t mod 1 and the offset from that segment's start."""
        t = np.asarray(t, dtype=float)
        u = t - np.floor(t)
        idx = self.segment_index(u)
        return idx, u - self.breakpoints[idx]

    def eval(self, t):
        """a(t mod 1); accepts scalars or arrays."""
        idx, _ = self._locate(t)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def periodic_part(self, t):
        """B_per(t mod 1), the bounded 1-periodic remainder of B; vectorized.

        A finite Python float is evaluated in Python floats, with the IEEE
        operations of the array path in its order (bisect_right over the
        breakpoints from index 1 is ``segment_index``), so both paths give
        the same bits; one float takes about a tenth of the array path's
        time for one value (~0.3 us on one core of a 2-vCPU VM).
        """
        if type(t) is float and math.isfinite(t):
            bp, q0, q1, q2 = self._scalar_table
            u = t - math.floor(t)
            i = bisect.bisect_right(bp, u, 1) - 1
            du = u - bp[i]
            return q0[i] + du * (q1[i] + du * q2[i])
        idx, du = self._locate(t)
        out = self.table.q0[idx] + du * (self.table.q1[idx] + du * self.table.q2[idx])
        return float(out) if out.ndim == 0 else out

    def integral(self, x0, x1, eps: float):
        """Exact integrals of f(x/eps) over [x0, x1], elementwise over arrays.

        The antiderivative of f is mean*t + b1 + S(t) with S = B_per' bounded
        and 1-periodic, so each integral is mean*(x1 - x0) plus eps times a
        difference of S values: nothing grows with 1/eps and nothing cancels.
        eps and the bounds are checked by ``check_reduction``.
        """
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        # np.maximum, unlike max, passes a NaN in either bound to the check
        check_reduction(eps, np.maximum(np.abs(x0).max(initial=0.0), np.abs(x1).max(initial=0.0)))

        def slope(x):
            # the phase of x/eps = t + r/eps, r = x - t*eps exactly: t alone
            # may round an end next to a jump of f onto the jump or across it
            t = x / eps
            p, e = _two_product(t, eps)
            idx, du = self._locate((t - np.floor(t)) + ((x - p) - e) / eps)
            return self.table.q1[idx] + 2.0 * du * self.table.q2[idx]

        return self.table.mean * (x1 - x0) + eps * (slope(x1) - slope(x0))


@dataclass(frozen=True)
class AntiderivativeTable:
    """Precomputed data for B(t) = mean*t^2/2 + b1*t + B_per(t).

    ``q0, q1, q2`` are per-segment coefficients of the periodic remainder in
    the local variable u = t - b_i:  B_per(t) = q0_i + q1_i*u + q2_i*u^2, so
    its slope is q1_i + 2*q2_i*u.
    """

    mean: float
    b1: float                     # linear coefficient, = int_0^1 A  -  mean/2
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray


def _build_antiderivative_table(bp: np.ndarray, vals: np.ndarray) -> AntiderivativeTable:
    seg = np.diff(np.append(bp, 1.0))
    # A(b_i) and B(b_i) by exact cumulative sums over segments
    A_nodes = np.concatenate([[0.0], np.cumsum(vals * seg)])     # length m+1, A(1) = mean
    B_incr = A_nodes[:-1] * seg + 0.5 * vals * seg * seg
    B_nodes = np.concatenate([[0.0], np.cumsum(B_incr)])          # B(b_i), B(1) = int_0^1 A
    mean = float(A_nodes[-1])
    b1 = float(B_nodes[-1] - 0.5 * mean)
    A_i = A_nodes[:-1]  # A(b_i) with A(t) = integral of a over [0, t]
    B_i = B_nodes[:-1]
    q0 = B_i - 0.5 * mean * bp * bp - b1 * bp
    q1 = A_i - mean * bp - b1
    q2 = 0.5 * (vals - mean)
    # B_per(0) must be exactly 0 so whole-period corner arguments cancel exactly
    q0[0] = 0.0
    return AntiderivativeTable(mean=mean, b1=b1, q0=q0, q1=q1, q2=q2)


class PeriodicStepKernel(PeriodicStepFunction):
    """Strictly positive periodic step weight."""

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        if np.any(self.values <= 0):
            raise ValueError("kernel values must be strictly positive")


def check_lambda_parameters(alpha: float, beta: float, lam: float) -> None:
    """The two-value weight's domain: finite alpha, beta > 0 and 0 < lam < 1."""
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
        raise ValueError("alpha and beta must be positive")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")


def lambda_weight_mean(alpha: float, beta: float, lam: float) -> float:
    """Mean of the two-value weight, lam*alpha + (1-lam)*beta."""
    return lam * alpha + (1.0 - lam) * beta


def make_lambda_kernel(alpha: float, beta: float, lam: float) -> PeriodicStepKernel:
    """Two-value weight: alpha on [0, lam/2) and [1-lam/2, 1), beta between.

    The alpha band is an arc of total measure ``lam`` centered (mod 1) at 0,
    the beta band an arc of measure ``1-lam`` centered at 1/2, so the weight
    is symmetric about 1/2. Mean is lam*alpha + (1-lam)*beta.
    """
    check_lambda_parameters(alpha, beta, lam)
    return PeriodicStepKernel([0.0, lam / 2.0, 1.0 - lam / 2.0], [alpha, beta, alpha])
