"""Exact and quadrature evaluation of the oscillating-weight pair energy.

The energy of a step function u against a periodic step weight a is

    E = Int_{(0,1)^2} a((x-y)/eps) f(u(x) - u(y)) dx dy.

Since u is constant on intervals, f(u(x) - u(y)) is constant on each interval
pair, so E is a weighted sum of rectangle integrals of a((x-y)/eps), each of
which is exact via the decomposed second antiderivative of the weight:

    Int_{[x0,x1]x[y0,y1]} a((x-y)/eps)
        = mean * area
          + eps^2 * [B_per((x1-y0)/eps) - B_per((x1-y1)/eps)
                     - B_per((x0-y0)/eps) + B_per((x0-y1)/eps)].

The mean*area term is computed directly (never as a difference of large
antiderivative values), so no precision is lost at small eps. B_per is
1-periodic, so the corner terms of all P^2 rectangles depend only on the
endpoint phases e/eps mod 1; ``_accel.pair_energy`` sums them as a field on
the circle in O(P log P) (its module docstring has the algebra).
``rect_integral`` keeps the single-rectangle formula: it is the O(P^2) oracle
of the tests, and it fills every entry of ``cell.build_cell_matrix`` with
four scalar ``PeriodicStepKernel.periodic_part`` calls, the one evaluator of
B_per. ``kernel.check_reduction`` owns the range of eps and of the reduced
arguments; every evaluator here calls it before any work.
The circle sum depends on u, the weight and eps but not on the potential f,
which enters only through the L x L matrix of level weights
f(level_l - level_m): ``evaluate_potentials`` scores one u against several
potentials with one circle sum, and ``evaluate`` is its one-potential case.
A midpoint tensor quadrature on a grid refined to the breakpoints of u
serves as an independent oracle; it uses the same circle sum with the weight
a itself and never touches B_per.

Error budget, measured with the two-arc recovery profile (u = z + chi, 2/eps
+ 1 intervals), whose exact energy on whole-period grids is the limit value
gamma_limit_constant_value: worst |E - limit| / limit over the weights
(alpha, beta, lam) = (1, 2, 1/2), (2.5, 0.7, 0.3), (0.6, 2.9, 0.77) and
z = -1/2, -0.2 on x86-64:

    1/eps = 2^10, 2^12, ..., 2^20  (P = 2049 .. 2_097_153)  <= 1.6e-16
    1/eps = 1e3, 1e4, 1e5, 1e6     (P = 2001 .. 2_000_001)  <= 3.1e-16
    1/eps = 3e5                    (P = 600_001)            <= 3.1e-16

tests/test_energy.py::TestErrorBudget holds 1/eps = 2^14 and 2^16 to 1e-12.
At 1/eps = 1e6 the profile builds in ~0.2 s and evaluates in ~0.4 s on one
core of a 2-vCPU VM (peak RSS ~0.23 GB): its 2 000 002 endpoints fall on 59
distinct phases, and ``_accel.circle_field`` merges the endpoints of each
distinct phase before its window sums. A profile whose P = 2e6 endpoints all
have distinct phases takes ~2 s (peak RSS ~0.65 GB). ``util.MAX_INTERVALS``,
the one interval cap of profile construction, the evaluator and the
quadrature grid, admits it and 1/eps = 2^20.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from . import _accel, util
from .kernel import PeriodicStepKernel, check_reduction
from .states import DEFAULT_VALUE_TOL, StepFunction, TripleWellPotential
from .util import ResourceLimitError


@dataclass(frozen=True)
class EnergyReport:
    value: float
    method: str  # "exact" or "quadrature"
    eps: float
    bound: float  # error bound; 0 for exact

    def to_json(self) -> dict:
        return asdict(self)


def rect_integral(
    k: PeriodicStepKernel, eps: float, x0: float, x1: float, y0: float, y1: float
) -> float:
    """Exact integral of a((x-y)/eps) over [x0,x1] x [y0,y1]."""
    if not (x0 < x1 and y0 < y1):
        raise ValueError("degenerate rectangle")
    d0, d1, d2, d3 = x1 - y0, x1 - y1, x0 - y0, x0 - y1
    # dividing by eps > 0 rounds monotonically: max|d| / eps is the largest |corner|
    check_reduction(eps, max(abs(d0), abs(d1), abs(d2), abs(d3)))
    # the corners as Python floats: the same roundings as an array divided by eps
    pp = k.periodic_part
    per = pp(d0 / eps) - pp(d1 / eps) - pp(d2 / eps) + pp(d3 / eps)
    return float(k.table.mean * (x1 - x0) * (y1 - y0) + eps * eps * per)


def _level_structure(u: StepFunction, pots, tol: float):
    """The level weight matrices of u under each potential, stacked as
    (len(pots), L, L), and the level of each interval."""
    levels, level_idx = np.unique(u.values, return_inverse=True)
    diff = levels[:, None] - levels[None, :]
    wls = np.array([p.value(diff, tol) for p in pots]).reshape(len(pots), levels.size, levels.size)
    return wls, level_idx.astype(np.int64)


def evaluate_potentials(
    u: StepFunction,
    pots: Sequence[TripleWellPotential],
    k: PeriodicStepKernel,
    eps: float,
    value_tol: float = DEFAULT_VALUE_TOL,
) -> List[EnergyReport]:
    """Exact energy of u under each potential of ``pots``, in order, from one
    circle sum. An energy is infinite iff some increment leaves the wells
    under that potential; every interval pair has positive area, so any
    infinite weight short-circuits to +inf before touching arithmetic, and
    when every potential does, no circle sum runs."""
    check_reduction(eps, 1.0)
    P = u.values.shape[0]
    if P > util.MAX_INTERVALS:
        raise ResourceLimitError(f"evaluate: {P} intervals exceed the cap {util.MAX_INTERVALS}")
    wls, level_idx = _level_structure(u, pots, value_tol)
    # every level occurs on some interval, so an infinite entry anywhere in
    # a level matrix is hit by a positive-area pair
    finite = ~np.any(np.isinf(wls), axis=(1, 2))
    values = np.full(len(pots), math.inf)
    if np.any(finite):
        t = k.table
        values[finite] = _accel.pair_energy(
            u.endpoints, u.lengths, level_idx, wls[finite], k.breakpoints,
            t.q0, t.q1, t.q2, t.mean, eps,
        )
    return [EnergyReport(value=v, method="exact", eps=eps, bound=0.0) for v in values.tolist()]


def evaluate(
    u: StepFunction,
    p: TripleWellPotential,
    k: PeriodicStepKernel,
    eps: float,
    value_tol: float = DEFAULT_VALUE_TOL,
) -> EnergyReport:
    """Exact energy of u under one potential; see ``evaluate_potentials``."""
    return evaluate_potentials(u, [p], k, eps, value_tol)[0]


def evaluate_quadrature(
    u: StepFunction,
    p: TripleWellPotential,
    k: PeriodicStepKernel,
    eps: float,
    n: int,
    value_tol: float = DEFAULT_VALUE_TOL,
) -> EnergyReport:
    """Midpoint tensor quadrature on an n x n grid refined to u's breakpoints.

    Refinement makes the potential factor exact per cell pair; the only error
    source is the weight's jump lines x - y in eps*(breakpoint + Z). Each such
    line crosses at most 2C of the C^2 cell pairs and contributes at most
    |jump| * w_max * h_max^2 per crossed cell, giving the reported bound

        bound = sum|jumps| * (2/eps + 1) * 2C * w_max * h_max^2  + float slack.

    For a constant weight the bound is pure float slack and the quadrature
    agrees with the exact evaluator to rounding. The refined grid has at most
    n + P cells; more than ``util.MAX_INTERVALS`` fails before anything is
    allocated. eps is checked as in ``evaluate``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    check_reduction(eps, 1.0)
    cells = n + u.values.shape[0]
    if cells > util.MAX_INTERVALS:
        raise ResourceLimitError(
            f"evaluate_quadrature: up to {cells} grid cells (n = {n}) exceed the cap "
            f"{util.MAX_INTERVALS}"
        )
    (wl,), level_idx = _level_structure(u, [p], value_tol)
    if np.any(np.isinf(wl)):
        raise ValueError("quadrature needs a finite potential or an admissible u")
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1), u.breakpoints]))
    lengths = np.diff(edges)
    centers = edges[:-1] + 0.5 * lengths
    iu = level_idx[u.segment_index(centers)]
    total = _accel.quadrature_energy(
        centers, lengths, iu, wl, k.breakpoints, k.values, eps
    )
    w_max = float(np.max(wl))
    max_a = float(np.max(k.values))
    C = centers.shape[0]
    h_max = float(np.max(lengths))
    jumps = float(np.sum(np.abs(k.values - np.roll(k.values, 1))))  # wrap-around included
    bound = jumps * (2.0 / eps + 1.0) * 2.0 * C * w_max * h_max * h_max
    bound += 1e-11 * max_a * w_max
    return EnergyReport(value=float(total), method="quadrature", eps=eps, bound=bound)
