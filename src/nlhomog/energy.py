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
antiderivative values), so no precision is lost at small eps.
``rect_integral`` keeps the single-rectangle formula: it is the O(P^2) oracle
of the tests, and it fills every entry of ``cell.build_cell_matrix`` with
four scalar ``PeriodicStepKernel.periodic_part`` calls, the one evaluator of
B_per. ``kernel.check_reduction`` owns the range of eps and of the reduced
arguments; every evaluator here calls it before any work.

B_per is 1-periodic, so the corner terms of all P^2 rectangles depend only
on the endpoint phases e/eps mod 1, and both energy sums reduce to one
primitive on the unit circle. For phases ``theta_b = x_b/eps mod 1``,
weights ``c_b`` and a 1-periodic piecewise quadratic ``g`` (segment s starts
at ``beta_s``: ``g(u) = q0_s + q1_s (u - beta_s) + q2_s (u - beta_s)^2``),
``circle_field`` returns

    F(theta_a) = sum_b c_b g((theta_a - theta_b) mod 1)

at every phase in O(P log P + m U log U) for P phases, U of them distinct,
and m segments. F depends on a phase only through its value, so ``_group``
merges the entries of each distinct phase (``np.bincount`` sums their
weights) and the sums run over the U distinct phases and their
copies ``theta - 1``: each phase has one copy in ``(theta - 1, theta]``, the
copies whose difference falls in segment s fill the window
``(theta - beta_{s+1}, theta - beta_s]``, and prefix sums of ``c``,
``c*phi`` and ``c*phi^2`` over the 2U copies give each window's sum in O(1).
The window ends at the weight's interior breakpoints take one
``searchsorted`` each; those at ``beta_0 = 0`` and 1 are known without a
search, since every phase lies on the 2^-52 grid. Memory is O(P) for the
phases and each output row plus O(m U). Windows are closed on the right, so
a difference that lands exactly on ``beta_s`` belongs to segment s, matching
the left-closed segments of the weight. The prefix sums of ``c*phi`` and
``c*phi^2`` are accumulated in ``np.longdouble``: in double precision their
rounding error grows with the number of copies and reached ~1e-12 relative
in the energy at P = 6e5 with every phase distinct; with the 64-bit mantissa
of x86-64 long doubles the energy stays within a few ulps up to P = 2e6 (see
the error budget below), and where numpy's long double is plain double it
loses that margin but not its correctness.

- ``pair_energy`` (exact): with ``D^l`` the signed endpoint measure of level l
  (+1 at right ends, -1 at left ends of its intervals) and ``S_l`` its total
  length, ``E = abar sum_lm w_lm S_l S_m - eps^2 sum_lm w_lm D^l . F^m`` with
  ``g = B_per``.
- ``quadrature_energy`` (oracle): a midpoint tensor quadrature on a grid
  refined to the breakpoints of u, with ``g = a`` itself and ``c`` the cell
  lengths of each level; it never reads B_per.

The circle sum depends on u, the weight and eps but not on the potential f,
which enters only through the L x L matrix of level weights
f(level_l - level_m): ``evaluate_potentials`` scores one u against several
potentials with one circle sum, and ``evaluate`` is its one-potential case.
The level-pair terms are added with ``math.fsum``, so the result depends
neither on the order of the levels nor on the other potentials of a call.

Error budget, measured with the two-arc recovery profile (u = z + chi, 2/eps
+ 1 intervals), whose exact energy on whole-period grids is the limit value
gamma_limit_constant_value: worst |E - limit| / limit over the weights
(alpha, beta, lam) = (1, 2, 1/2), (2.5, 0.7, 0.3), (0.6, 2.9, 0.77) and
z = -1/2, -0.2 on x86-64:

    1/eps = 2^10, 2^12, ..., 2^20  (P = 2049 .. 2_097_153)  <= 1.6e-16
    1/eps = 1e3, 1e4, 1e5, 1e6     (P = 2001 .. 2_000_001)  <= 3.1e-16
    1/eps = 3e5                    (P = 600_001)            <= 3.1e-16

tests/test_energy.py::TestErrorBudget holds 1/eps = 2^14 and 2^16 to 1e-12.
At 1/eps = 1e6 the profile builds in 0.10-0.16 s and evaluates in
0.15-0.24 s on one core of a 2-vCPU VM (fresh processes, peak RSS ~0.22 GB):
its 2 000 002 endpoints fall on 59 distinct phases, which ``_group`` finds
by a search in the distinct phases, and ``circle_field`` merges the
endpoints of each distinct phase before its window sums. A profile whose
P = 2e6 endpoints all have distinct phases takes 2.1-2.7 s under a
5-segment weight (fresh processes, peak RSS ~0.65 GB). ``util.MAX_INTERVALS``,
the one interval cap of profile construction, the evaluator and the
quadrature grid, admits it and 1/eps = 2^20.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from . import util
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


# ---------------------------------------------------------------------------
# circle sum: F(theta_a) = sum_b c_b g((theta_a - theta_b) mod 1)
# ---------------------------------------------------------------------------

def phases(x, eps):
    """x/eps mod 1, rounded to a multiple of 2^-52 so that ``phase - 1`` is
    exact; this keeps the windows of ``circle_field`` an exact partition."""
    t = np.asarray(x, dtype=float) / eps
    t = ((t - np.floor(t)) + 1.0) - 1.0
    t[t >= 1.0] = 0.0
    return t


def _cumsum0(v, dtype=float):
    """Prefix sums with a leading 0, accumulated in ``dtype``."""
    out = np.zeros(v.size + 1, dtype=dtype)
    np.cumsum(v, out=out[1:])
    return out


# ``_group`` finds each entry's index by binary search when the values repeat
# at least this often on average, and from a sort's permutation otherwise. On
# the phases of oscillating profiles with 512 arcs the search took 1.0-1.4x
# the permutation's time at P/U = 4-13 and 0.83-0.86x at P/U = 32-37; with
# 1-64 arcs it won at every P/U, and on shuffled values it lost at every P/U
# up to 64 (numpy 2.4, one core of a 2-vCPU VM).
GROUP_SEARCH_RATIO = 16


def _group(x):
    """The sorted distinct values of the 1-D array ``x`` and the index of
    each entry among them, equal to ``np.unique(x, return_inverse=True)``
    for finite x.

    The values are sorted once, without their permutation. When there are
    at most P / ``GROUP_SEARCH_RATIO`` distinct values among the P entries,
    each entry's index is found by ``np.searchsorted`` in the distinct
    values; otherwise it comes from the permutation of an ``np.argsort``,
    as in ``np.unique``, whose argsort is its slowest step when values repeat:
    for the 2 000 002 endpoint phases of the recovery profile at
    1/eps = 1e6, 59 distinct, ``np.unique`` takes 0.13-0.15 s and this
    0.03 s (one core of a 2-vCPU VM).
    """
    s = np.sort(x)
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    tu = s[new]
    if tu.size * GROUP_SEARCH_RATIO <= x.size:
        return tu, np.searchsorted(tu, x)
    inv = np.empty(x.size, dtype=np.intp)
    inv[np.argsort(x)] = np.cumsum(new) - 1
    return tu, inv


def circle_field(theta, weights, kbp, q0, q1=None, q2=None):
    """F[k, a] = sum_b weights[k, b] g((theta[a] - theta[b]) mod 1).

    ``theta`` holds phases in [0, 1) from ``phases``; ``weights`` has one row
    per field. ``g`` has segments starting at ``kbp`` with coefficients
    ``q0, q1, q2``; leaving out q1 and q2 makes it piecewise constant.
    Needs ``kbp[0] == 0`` (as ``StepFunction`` requires) and ``theta`` from
    ``phases``: then ``tu - 1`` is exact and the outer cuts need no search.

    ``_group`` gives the U distinct phases ``tu`` and each entry's index
    among them; the weights are merged per distinct phase, the window sums
    run over ``tu`` and its copies ``tu - 1``, and each entry reads the
    field of its phase. The endpoints of an eps-periodic profile fall on a
    few phases (3 of 8194 for the recovery profile at 1/eps = 4096), so the
    indices come from a search in ``tu``; phases that repeat less than
    ``GROUP_SEARCH_RATIO`` times on average, such as those of a rough
    profile or of a quadrature grid not commensurate with eps, take them
    from a sort's permutation.
    """
    # F depends on a phase only through its value: one weight per distinct phase
    tu, inv = _group(theta)
    U = tu.size
    phi = np.concatenate([tu - 1.0, tu])
    edges = np.append(kbp, 1.0)
    # window of segment s is phi[cut[s+1]:cut[s]], i.e. (tu - edges[s+1], tu - edges[s]];
    # phi <= tu[a] holds for all U copies and a + 1 phases, phi <= tu[a] - 1 for a + 1 copies
    inner = [np.searchsorted(phi, tu - e, side="right") for e in edges[1:-1]]
    cut = [slice(U + 1, 2 * U + 1)] + inner + [slice(1, U + 1)]
    quadratic = q1 is not None and (np.any(q1) or np.any(q2))
    out = np.empty((weights.shape[0], theta.size))
    for k, w in enumerate(weights):
        c = np.tile(np.bincount(inv, weights=w, minlength=tu.size), 2)
        pre0 = _cumsum0(c)
        if quadratic:
            c *= phi
            pre1 = _cumsum0(c, np.longdouble)
            c *= phi
            pre2 = _cumsum0(c, np.longdouble)
        del c
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
            # sum_b c_b g_s(d - phi_b), expanded in powers of d
            F += q0[s] * C0 + q1[s] * (d * C0 - C1) + q2[s] * (d * (d * C0 - 2.0 * C1) + C2)
        out[k] = F[inv]
        pre0 = pre1 = pre2 = None  # freed before the next row's are built
    return out


def _level_pair_terms(wls, c, F, scale):
    """For each matrix w of the stack ``wls``, the terms
    scale * w[l, m] * (c[l] . F[m]) of its nonzero weights; each product
    c[l] . F[m] is taken once for the whole stack."""
    L = wls.shape[1]
    used = np.any(wls != 0.0, axis=0)
    dots = {
        (l, m): float(np.sum(c[l] * F[m])) for l in range(L) for m in range(L) if used[l, m]
    }
    return [
        [scale * w[l, m] * dots[l, m] for l in range(L) for m in range(L) if w[l, m] != 0.0]
        for w in wls
    ]


# ---------------------------------------------------------------------------
# exact pair-sum energy: sum_ij w_ij * Int_{I_i x I_j} a((x-y)/eps)
# ---------------------------------------------------------------------------

def pair_energy(endpoints, lengths, level_idx, wl, k, eps):
    """Exact rectangle sums of the weight k, one for each finite level weight
    matrix of the stack ``wl`` (shape (K, L, L)); ``level_idx`` maps each
    interval to a row/column of them. Returns the K energies."""
    t = k.table
    L = wl.shape[1]
    P = lengths.shape[0]
    on = level_idx == np.arange(L)[:, None]
    D = np.zeros((L, P + 1))
    D[:, 1:] += on
    D[:, :-1] -= on
    del on
    S = np.bincount(level_idx, weights=lengths, minlength=L)
    F = circle_field(phases(endpoints, eps), D, k.breakpoints, t.q0, t.q1, t.q2)
    return [
        math.fsum([t.mean * w[l, m] * S[l] * S[m] for l in range(L) for m in range(L)] + terms)
        for w, terms in zip(wl, _level_pair_terms(wl, D, F, -eps * eps))
    ]


# ---------------------------------------------------------------------------
# midpoint tensor quadrature: sum_cd a((x_c - x_d)/eps) w[iu_c, iu_d] l_c l_d
# ---------------------------------------------------------------------------

def quadrature_energy(centers, lengths, iu, w, k, eps):
    """The midpoint sum of the weight k over cells at ``centers`` with
    ``lengths``, cell c on level ``iu[c]`` of the level weights ``w``."""
    L = w.shape[0]
    c = np.zeros((L, lengths.shape[0]))
    c[iu, np.arange(lengths.shape[0])] = lengths
    F = circle_field(phases(centers, eps), c, k.breakpoints, k.values)
    return math.fsum(_level_pair_terms(w[None], c, F, 1.0)[0])


def _level_structure(u: StepFunction, pots, tol: float):
    """The level weight matrices of u under each potential, stacked as
    (len(pots), L, L), and the level of each interval."""
    levels, level_idx = _group(u.values)
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
        values[finite] = pair_energy(u.endpoints, u.lengths, level_idx, wls[finite], k, eps)
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
    total = quadrature_energy(centers, lengths, iu, wl, k, eps)
    w_max = float(np.max(wl))
    max_a = float(np.max(k.values))
    C = centers.shape[0]
    h_max = float(np.max(lengths))
    jumps = float(np.sum(np.abs(k.values - np.roll(k.values, 1))))  # wrap-around included
    bound = jumps * (2.0 / eps + 1.0) * 2.0 * C * w_max * h_max * h_max
    bound += 1e-11 * max_a * w_max
    return EnergyReport(value=float(total), method="quadrature", eps=eps, bound=bound)
