"""Step functions on (0,1), the triple-well potential, and admissibility.

A pair energy with the triple-well potential is finite only when the function
takes at most two values at gap exactly 1; such functions decompose as
u = z + chi with chi a {0,1}-valued indicator. The decomposition, the
admissible-interval bookkeeping, and oscillating microstructure profiles all
live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import util
from .util import ResourceLimitError

DEFAULT_VALUE_TOL = 1e-12

Arc = Tuple[float, float]


class StepFunction:
    """Piecewise-constant function on (0,1): value[i] on [b_i, b_{i+1})."""

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if bp[-1] >= 1.0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing within [0, 1)")
        if vals.shape != bp.shape:
            raise ValueError("values must match breakpoints in length")
        self.breakpoints = bp
        self.values = vals

    @property
    def endpoints(self) -> np.ndarray:
        """Interval endpoints including the implicit final 1."""
        return np.append(self.breakpoints, 1.0)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.endpoints)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, None)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def ess_inf(self) -> float:
        return float(np.min(self.values))

    def ess_sup(self) -> float:
        return float(np.max(self.values))

    def to_json(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        return cls(obj["breakpoints"], obj["values"])

    @classmethod
    def constant(cls, c: float) -> "StepFunction":
        return cls([0.0], [c])


def integrate(u: StepFunction) -> float:
    """Exact integral over (0,1): sum of value * interval length."""
    return float(np.dot(u.values, u.lengths))


@dataclass(frozen=True)
class TripleWellPotential:
    """Cost of a pairwise increment: 0 at -1 and 1, 1 at 0, cap elsewhere.

    cap=None means the uncapped potential (infinite off the wells); a finite
    cap >= 1 gives the everywhere-finite variant that increases to the
    uncapped one as cap grows.
    """

    cap: Optional[float] = None

    def __post_init__(self):
        if self.cap is not None and self.cap < 1.0:
            raise ValueError("cap must be >= 1")

    @property
    def kind(self) -> str:
        return "infinite" if self.cap is None else "capped"

    def value(self, z, tol: float = 0.0):
        """f(z) with well snapping, for a scalar or an array z.

        z counts as the nearest of the wells -1, 0, 1 (ties to the first in
        that order) when within tol of it; a scalar z gives a float.
        """
        if tol < 0:
            raise ValueError("tol must be >= 0")
        z = np.asarray(z, dtype=float)
        dists = np.stack([np.abs(z + 1.0), np.abs(z), np.abs(z - 1.0)])
        nearest = np.argmin(dists, axis=0)
        snapped = np.min(dists, axis=0) <= tol
        off_cost = math.inf if self.cap is None else float(self.cap)
        out = np.where(snapped, np.where(nearest == 1, 1.0, 0.0), off_cost)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AdmissibleDecomposition:
    z: float
    chi: StepFunction

    def reconstruct(self) -> StepFunction:
        return StepFunction(self.chi.breakpoints, self.z + self.chi.values)


@dataclass(frozen=True)
class NotAdmissible:
    """Witness of inadmissibility: a value pair whose gap is not in {0, 1}."""

    value_a: float
    value_b: float

    @property
    def gap(self) -> float:
        return abs(self.value_b - self.value_a)


def decompose(
    u: StepFunction, tol: float = DEFAULT_VALUE_TOL
) -> Union[AdmissibleDecomposition, NotAdmissible]:
    """Split u into base level z plus a {0,1} indicator, if possible.

    Values are clustered with tolerance tol first. A single cluster gives
    chi == 0; two clusters at gap 1 (within tol) give the indicator of the
    upper-cluster intervals; anything else returns NotAdmissible with an
    offending pair. z is chosen as the smaller cluster value.
    """
    order = np.argsort(u.values)
    sorted_vals = u.values[order]
    reps = [sorted_vals[0]]
    for v in sorted_vals[1:]:
        if v - reps[-1] > tol:
            reps.append(v)
    if len(reps) == 1:
        chi = StepFunction(u.breakpoints, np.zeros_like(u.values))
        return AdmissibleDecomposition(z=float(reps[0]), chi=chi)
    if len(reps) == 2 and abs((reps[1] - reps[0]) - 1.0) <= tol:
        z = float(reps[0])
        chi_vals = (u.values > z + 0.5).astype(float)
        return AdmissibleDecomposition(z=z, chi=StepFunction(u.breakpoints, chi_vals))
    if len(reps) == 2:
        return NotAdmissible(value_a=float(reps[0]), value_b=float(reps[1]))
    # three or more levels: some pair must have a gap outside {0, 1}
    for a, b in zip(reps, reps[1:]):
        if abs((b - a) - 1.0) > tol:
            return NotAdmissible(value_a=float(a), value_b=float(b))
    # all adjacent gaps are 1, so the extremes are >= 2 apart
    return NotAdmissible(value_a=float(reps[0]), value_b=float(reps[-1]))


@dataclass(frozen=True)
class AdmissibleInterval:
    iota: float
    sigma: float

    @property
    def empty(self) -> bool:
        return self.iota > self.sigma


def admissible_interval(u: StepFunction) -> AdmissibleInterval:
    """[integral - ess inf, integral - ess sup + 1]; empty iff oscillation > 1."""
    m = integrate(u)
    return AdmissibleInterval(iota=m - u.ess_inf(), sigma=m - u.ess_sup() + 1.0)


def _validate_arcs(arcs: Sequence[Arc]) -> list:
    prev_end = 0.0
    out = []
    for a, b in arcs:
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("arcs must be non-degenerate subintervals of [0, 1]")
        if a < prev_end:
            raise ValueError("arcs must be disjoint and sorted")
        prev_end = b
        out.append((float(a), float(b)))
    return out


def _merge_touching(arcs: list) -> list:
    """Join arcs where one ends exactly where the next starts."""
    out = []
    for a, b in arcs:
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def period_count(eps: float) -> int:
    """Number of eps-periods that meet (0, 1): ceil(1/eps), less the slack
    that keeps a whole-period grid with 1/eps rounded up by an ulp from
    gaining an empty period."""
    return math.ceil(1.0 / eps - 1e-12)


def check_profile_size(stage: str, runs: int, eps: float) -> None:
    """Refuse, before any work, a stage whose eps-periodic profile with
    ``runs`` cyclic runs per period (at least 1) has more than
    ``util.MAX_INTERVALS`` breakpoints by the estimate 2*runs/eps + 2."""
    est = 2 * max(runs, 1) * period_count(eps) + 2
    if est > util.MAX_INTERVALS:
        raise ResourceLimitError(
            f"{stage}: ~{est} breakpoints at 1/eps = {1.0 / eps:.6g} "
            f"exceed the cap {util.MAX_INTERVALS}"
        )


def periodic_cuts(offsets, eps: float) -> np.ndarray:
    """The eps-periodized points (j + o) * eps, capped at 1, of the cell
    points o in offsets, one row per period j < period_count(eps). One
    rounding per cut keeps whole-period grids exact."""
    j = np.arange(period_count(eps), dtype=float)
    return np.minimum((j[:, None] + np.asarray(offsets, dtype=float)[None, :]) * eps, 1.0)


def oscillating_profile(z: float, arcs: Sequence[Arc], eps: float) -> StepFunction:
    """The step function x -> z + chi_arcs(x/eps mod 1) on (0,1).

    The indicator's support within the unit cell is a sorted list of disjoint
    arcs. Intervals of equal value arising across period boundaries are
    merged, so the breakpoint count is at most 2*runs/eps + 2, where runs is
    the number of cyclic runs of the indicator. ``check_profile_size`` checks
    that estimate against ``util.MAX_INTERVALS`` before anything is built.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    arcs = _merge_touching(_validate_arcs(arcs))
    # cyclic runs of the indicator; an arc ending at 1 continues one at 0
    runs = len(arcs) - int(bool(arcs) and arcs[0][0] == 0.0 and arcs[-1][1] == 1.0)
    check_profile_size("oscillating_profile", runs, eps)
    # Period j is cut at (j+a)*eps and (j+b)*eps for each arc, then at
    # (j+1)*eps; each cut ends a piece of value 0 (gap), 1 (arc), ..., 0.
    offsets = np.append(np.asarray(arcs, dtype=float).reshape(-1), 1.0)
    flags = np.append(np.tile([0.0, 1.0], len(arcs)), 0.0)
    cuts = np.concatenate([[0.0], periodic_cuts(offsets, eps).reshape(-1)])
    flags = np.tile(flags, period_count(eps))
    # drop zero-length pieces, merge equal neighbours
    keep = cuts[1:] > cuts[:-1]
    starts, flags = cuts[:-1][keep], flags[keep]
    first = np.concatenate([[True], flags[1:] != flags[:-1]])
    return StepFunction(starts[first], z + flags[first])
