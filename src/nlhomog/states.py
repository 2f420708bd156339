"""Step functions on (0,1), the triple-well potential, and oscillating profiles.

A pair energy with the uncapped triple-well potential is finite only on
functions u = z + chi with chi a {0,1}-valued indicator; the exact evaluator
(``energy.evaluate``) makes that decision from u's levels and returns inf
off it. Oscillating microstructure profiles z + chi(x/eps) are built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ValueError("breakpoints and values must be finite")
        self.breakpoints = bp
        self.values = vals

    @property
    def endpoints(self) -> np.ndarray:
        """Interval endpoints including the implicit final 1."""
        return np.append(self.breakpoints, 1.0)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.endpoints)

    def segment_index(self, x):
        """Index i of the segment [b_i, b_{i+1}) holding x, elementwise.

        Counts the breakpoints after b_0 = 0 that are <= x, so x < 0 falls in
        the first segment and x >= 1 in the last.
        """
        return self.breakpoints[1:].searchsorted(x, "right")

    def eval(self, x):
        out = self.values[self.segment_index(np.asarray(x, dtype=float))]
        return float(out) if out.ndim == 0 else out

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
        if self.cap is not None and not 1.0 <= self.cap < math.inf:
            raise ValueError("cap must be >= 1")

    @property
    def kind(self) -> str:
        return "infinite" if self.cap is None else "capped"

    def value(self, z, tol: float = 0.0):
        """f(z) with well snapping, for a scalar or an array z.

        z counts as the nearest of the wells -1, 0, 1 (ties to the first in
        that order) when within tol of it; a scalar z gives a float.
        """
        if not 0.0 <= tol < math.inf:
            raise ValueError("tol must be finite and >= 0")
        z = np.asarray(z, dtype=float)
        dists = np.stack([np.abs(z + 1.0), np.abs(z), np.abs(z - 1.0)])
        nearest = np.argmin(dists, axis=0)
        snapped = np.min(dists, axis=0) <= tol
        off_cost = math.inf if self.cap is None else float(self.cap)
        out = np.where(snapped, np.where(nearest == 1, 1.0, 0.0), off_cost)
        return float(out) if out.ndim == 0 else out


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


def check_profile_size(arcs: Sequence[Arc], eps: float) -> Tuple[list, int]:
    """Refuse ``oscillating_profile(z, arcs, eps)`` before it is built: an
    eps outside (0, 1], invalid arcs, or more breakpoints than
    ``util.MAX_INTERVALS``. Returns the merged arcs and the number of periods
    the profile is built from.

    Intervals of equal value arising across period boundaries are merged, so
    the breakpoint count is at most 2*runs/eps + 2, where runs is the number
    of cyclic runs of the indicator (at least 1 in the estimate). Nothing is
    allocated, so a caller can size every eps of a grid before the first
    profile.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    arcs = _merge_touching(_validate_arcs(arcs))
    # cyclic runs of the indicator; an arc ending at 1 continues one at 0
    runs = len(arcs) - int(bool(arcs) and arcs[0][0] == 0.0 and arcs[-1][1] == 1.0)
    # periods that meet (0, 1): ceil(1/eps), less the slack that keeps a
    # whole-period grid with 1/eps rounded up by an ulp from gaining an
    # empty period
    periods = math.ceil(1.0 / eps - 1e-12)
    est = 2 * max(runs, 1) * periods + 2
    if est > util.MAX_INTERVALS:
        raise ResourceLimitError(
            f"oscillating_profile: ~{est} breakpoints at 1/eps = {1.0 / eps:.6g} "
            f"exceed the cap {util.MAX_INTERVALS}"
        )
    return arcs, periods


def oscillating_profile(z: float, arcs: Sequence[Arc], eps: float) -> StepFunction:
    """The step function x -> z + chi_arcs(x/eps mod 1) on (0,1).

    The indicator's support within the unit cell is a sorted list of disjoint
    arcs; ``check_profile_size`` refuses an over-cap profile before anything
    is built.
    """
    arcs, periods = check_profile_size(arcs, eps)
    # Period j is cut at (j+a)*eps and (j+b)*eps for each arc, then at
    # (j+1)*eps, capped at 1; each cut ends a piece of value 0 (gap), 1 (arc),
    # ..., 0. One rounding per cut keeps whole-period grids exact.
    offsets = np.append(np.asarray(arcs, dtype=float).reshape(-1), 1.0)
    r = offsets.size
    cuts = np.empty(periods * r + 1)
    cuts[0] = 0.0
    body = cuts[1:].reshape(periods, r)  # a view: the cuts are written in place
    np.add(np.arange(periods, dtype=float)[:, None], offsets, out=body)
    body *= eps
    np.minimum(body, 1.0, out=body)
    # drop zero-length pieces, merge equal neighbours; index gathers, as a
    # boolean gather costs more here than finding the indices first
    keep = np.flatnonzero(cuts[1:] > cuts[:-1])
    flags = np.tile(np.arange(r) % 2 == 1, periods)[keep]
    first = np.flatnonzero(np.concatenate([[True], flags[1:] != flags[:-1]]))
    return StepFunction(cuts[keep[first]], z + flags[first])
