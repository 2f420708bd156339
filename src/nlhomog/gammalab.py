"""Limit experiments: homogenized values, convergence studies, certificates.

Everything here is a finite-epsilon computation checked against closed forms:
the constant-target limit (the cell minimum at volume fraction 1/2, whose
value and profile come from ``cell.cell_minimum`` alone; every quantity
derived from the limit, such as ``implied_g1``, goes through
``gamma_limit_constant_value``), the step-target limit (mean weight times
s^2 + (1-s)^2), the two-scale pairing, the non-representability certificate
(the cost a pairwise double-integral representation would have to assign to
unit increments depends on the jump location, so no such representation
exists), and the capped-potential threshold experiment against the fixed
family ``DEVIATION_PROFILES``.

A parallel map (``pmap``) is taken only where the profiles grow with 1/eps:
the recovery study, and the certificate, which hands it to its recovery
study. The flat, step and capped-potential studies score a fixed number of
intervals at every eps, too little work for a pool to pay, and run serially.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import cell
from .energy import evaluate, evaluate_potentials
from .kernel import PeriodicStepFunction, lambda_weight_mean, make_lambda_kernel
from .states import StepFunction, TripleWellPotential, check_profile_size, oscillating_profile
from .util import serial_map

DEFAULT_EPS_GRID = tuple(1.0 / m for m in (8, 16, 32, 64, 128, 256))
DEFAULT_M_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_FM_EPS = 1.0 / 32.0  # fM_threshold_experiment's eps

# non_representability_certificate: the two jump locations, the difference
# of implied costs that confirms, and the tolerance the studies must meet
DEFAULT_S1, DEFAULT_S2 = 0.5, 0.25
DEFAULT_DIFFERENCE_TOL = 1e-3
DEFAULT_STUDY_TOL = 1e-2

# below this absolute error a study point counts as converged to roundoff and
# is excluded from rate fitting (whole-period grids hit the limit exactly)
MACHINE_ERROR_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceStudy:
    eps_grid: List[float]
    values: List[float]
    limit_ref: float
    fitted_rate: Optional[float]
    fitted_constant: Optional[float]
    envelope_ok: bool
    notes: List[str] = field(default_factory=list)

    @property
    def final_error(self) -> float:
        return abs(self.values[-1] - self.limit_ref)

    def to_json(self) -> dict:
        return {**asdict(self), "final_error": self.final_error}


@dataclass(frozen=True)
class Certificate:
    kind: str
    verdict: str  # confirmed | refuted | inconclusive
    payload: dict
    tolerances: dict

    def to_json(self) -> dict:
        return asdict(self)


def gamma_limit_constant_value(alpha: float, beta: float, lam: float) -> float:
    """Homogenized energy of any constant target: ``cell.cell_minimum`` at
    volume fraction 1/2, whose docstring says when it is exact."""
    return cell.cell_minimum(alpha, beta, lam, 0.5).energy


def _fit_rate(eps: Sequence[float], errs: Sequence[float], limit_ref: float):
    m = len(eps)
    lo = m - max(2, (m + 1) // 2)  # last half of the grid, pre-asymptotic dropped
    atol = MACHINE_ERROR_FLOOR * max(1.0, abs(limit_ref))
    xs, ys = [], []
    for e, err in zip(eps[lo:], errs[lo:]):
        if err > atol:
            xs.append(math.log(e))
            ys.append(math.log(err))
    if len(xs) < 2:
        return None, None, ["rate_fit_skipped: errors at roundoff level"]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept)), []


def _make_study(eps_grid, values, limit_ref, notes):
    errs = [abs(v - limit_ref) for v in values]
    scale = max(1.0, abs(limit_ref))
    envelope_ok = errs[-1] <= 2.0 * errs[0] + 1e-12 * scale
    rate, const, fit_notes = _fit_rate(eps_grid, errs, limit_ref)
    return ConvergenceStudy(
        eps_grid=eps_grid,
        values=[float(v) for v in values],
        limit_ref=float(limit_ref),
        fitted_rate=rate,
        fitted_constant=const,
        envelope_ok=envelope_ok,
        notes=list(notes) + fit_notes,
    )


def _whole_period_notes(eps_grid):
    notes = []
    for e in eps_grid:
        m = 1.0 / e
        if abs(m - round(m)) > 1e-9:
            notes.append(f"boundary_effects: 1/eps = {m:.6g} is not an integer")
    return notes


def _energy_study(profile_of_eps, alpha, beta, lam, eps_grid, limit_ref, pmap=None):
    """Exact energies of profile_of_eps(eps) under the uncapped potential and
    the (alpha, beta, lam) weight, one per eps, as a study against limit_ref.
    The grid is checked before any energy is computed. pmap maps over the
    grid; only a profile that grows with 1/eps gives a pool work to share."""
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ValueError("eps_grid must not be empty")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    pmap = pmap or serial_map
    kern = make_lambda_kernel(alpha, beta, lam)
    pot = TripleWellPotential()

    def one(eps):
        return evaluate(profile_of_eps(eps), pot, kern, eps).value

    values = pmap(one, eps_grid)
    return _make_study(eps_grid, values, limit_ref, _whole_period_notes(eps_grid))


def run_recovery_study(
    c: float,
    alpha: float,
    beta: float,
    lam: float,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    pmap: Optional[Callable] = None,
) -> ConvergenceStudy:
    """Energies of the oscillating recovery profile c - 1/2 + arcs(x/eps),
    with the arcs and the limit of ``cell.cell_minimum`` at volume fraction 1/2.

    On whole-period grids (1/eps integer) the exact evaluator reproduces the
    limit to roundoff at every eps; non-integer 1/eps is allowed but noted,
    since boundary layers then contaminate the rate fit. Every eps is sized
    before the first profile is built.
    """
    best = cell.cell_minimum(alpha, beta, lam, 0.5)
    for eps in eps_grid:
        check_profile_size(best.arcs, eps)
    return _energy_study(
        lambda eps: oscillating_profile(c - 0.5, best.arcs, eps),
        alpha, beta, lam, eps_grid, best.energy, pmap,
    )


def run_flat_study(
    c: float,
    alpha: float,
    beta: float,
    lam: float,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
) -> ConvergenceStudy:
    """Energies of the constant (non-oscillating) sequence u == c: these stay
    at the full mean weight, strictly above the homogenized value."""
    u = StepFunction.constant(c)
    mean = make_lambda_kernel(alpha, beta, lam).table.mean
    return _energy_study(lambda eps: u, alpha, beta, lam, eps_grid, mean)


def run_step_study(
    s: float,
    alpha: float,
    beta: float,
    lam: float,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
) -> ConvergenceStudy:
    """Energies of the fixed single-jump target at shrinking eps (constant
    sequence in eps; the oscillating weight averages out)."""
    u = StepFunction([0.0, s], [1.0, 0.0])
    limit_ref = step_limit_value(s, alpha, beta, lam)
    return _energy_study(lambda eps: u, alpha, beta, lam, eps_grid, limit_ref)


def two_scale_pairing(
    chi_eps: StepFunction,
    psi1: StepFunction,
    psi2: PeriodicStepFunction,
    eps: float,
) -> float:
    """Exact integral of chi_eps(x) * psi1(x) * psi2(x/eps) over (0,1).

    Between consecutive breakpoints of chi_eps and psi1 the product
    chi_eps * psi1 is constant, and psi2(x/eps) integrates over each such
    piece in closed form (``PeriodicStepFunction.integral``, which refuses
    an eps outside (0, 1]), so the cost depends neither on eps nor on the
    number of segments of psi2.
    """
    edges = np.unique(np.concatenate([chi_eps.endpoints, psi1.endpoints]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    weights = psi2.integral(edges[:-1], edges[1:], eps)
    return float(np.dot(chi_eps.eval(mids) * psi1.eval(mids), weights))


def step_limit_value(s: float, alpha: float, beta: float, lam: float) -> float:
    """Limit energy of the single-jump target: mean * (s^2 + (1-s)^2)."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    abar = lambda_weight_mean(alpha, beta, lam)
    return abar * (s * s + (1.0 - s) ** 2)


def implied_g1(s: float, alpha: float, beta: float, lam: float) -> float:
    """Cost a pairwise representation would be forced to assign to unit
    increments, given a jump at s:

        ((s^2 + (1-s)^2) / (2 s (1-s))) * (mean - constant-target limit).

    Its dependence on s is the non-representability witness.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    ratio = (s * s + (1.0 - s) ** 2) / (2.0 * s * (1.0 - s))
    abar = lambda_weight_mean(alpha, beta, lam)
    return ratio * (abar - gamma_limit_constant_value(alpha, beta, lam))


def non_representability_certificate(
    alpha: float,
    beta: float,
    lam: float,
    s1: float = DEFAULT_S1,
    s2: float = DEFAULT_S2,
    tol: float = DEFAULT_DIFFERENCE_TOL,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    study_tol: float = DEFAULT_STUDY_TOL,
    pmap: Optional[Callable] = None,
) -> Certificate:
    """Certify that no pairwise double-integral representation matches both
    exact limits: the implied unit-increment costs at two jump locations must
    agree for a representation to exist, and they do not.

    Confirmed requires the analytic disagreement AND finite-eps reproduction
    of the constant-target and step-target limits within study_tol, so the
    certificate rests on computed energies, not only on algebra.
    """
    if not (0.0 < s1 < 1.0 and 0.0 < s2 < 1.0) or s1 == s2:
        raise ValueError("s1, s2 must be distinct points of (0, 1)")
    if abs((s1 + s2) - 1.0) <= 1e-12:
        raise ValueError("degenerate pair: s2 == 1 - s1 forces equal implied costs")
    for name, value in (("tol", tol), ("study_tol", study_tol)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive")
    g_a = implied_g1(s1, alpha, beta, lam)
    g_b = implied_g1(s2, alpha, beta, lam)
    diff = abs(g_a - g_b)
    const_study = run_recovery_study(0.0, alpha, beta, lam, eps_grid, pmap=pmap)
    step_studies = {s: run_step_study(s, alpha, beta, lam, eps_grid) for s in (s1, s2)}
    reproduced = const_study.final_error <= study_tol and all(
        st.final_error <= study_tol for st in step_studies.values()
    )
    if not reproduced:
        verdict = "inconclusive"
    elif diff > tol:
        verdict = "confirmed"
    else:
        verdict = "refuted"
    payload = {
        "s1": s1,
        "s2": s2,
        "unit_jump_cost_s1": g_a,
        "unit_jump_cost_s2": g_b,
        "abs_difference": diff,
        "constant_target_study": const_study.to_json(),
        "step_target_studies": {str(s): st.to_json() for s, st in step_studies.items()},
    }
    return Certificate(
        kind="non_representability",
        verdict=verdict,
        payload=payload,
        tolerances={"difference_tol": tol, "study_tol": study_tol},
    )


# profiles with increments outside {-1, 0, 1}: a three-level staircase with
# half-steps, a half-gap two-level split, and a gap-2 two-level split
DEVIATION_PROFILES = (
    StepFunction([0.0, 1.0 / 3.0, 2.0 / 3.0], [0.0, 0.5, 1.0]),
    StepFunction([0.0, 0.5], [0.0, 0.5]),
    StepFunction([0.0, 0.5], [0.0, 2.0]),
)


def fM_threshold_experiment(
    alpha: float,
    beta: float,
    lam: float,
    eps: float = DEFAULT_FM_EPS,
    M_grid: Sequence[float] = DEFAULT_M_GRID,
) -> Certificate:
    """Find the smallest tested cap at which every profile of
    DEVIATION_PROFILES costs strictly more than the admissible oscillating
    optimum.

    Deviations with increments outside {-1, 0, 1} forfeit the zero-cost
    wells, so they are expected to lose once the cap is large enough; the
    experiment measures the empirical threshold over the given grid. The cap
    enters only the level weights, so each profile is scored against the
    whole grid with one circle sum (``evaluate_potentials``): 1 +
    len(DEVIATION_PROFILES) circle sums for any grid, run serially.
    """
    # every cap is checked before any energy is computed
    pots = [TripleWellPotential(cap=M) for M in M_grid]
    kern = make_lambda_kernel(alpha, beta, lam)
    u_opt = oscillating_profile(-0.5, cell.cell_minimum(alpha, beta, lam, 0.5).arcs, eps)
    e_opt = evaluate(u_opt, TripleWellPotential(), kern, eps).value

    def energies(u):
        return [r.value for r in evaluate_potentials(u, pots, kern, eps)]

    # one list per profile, turned into one list per cap
    by_cap = map(list, zip(*map(energies, DEVIATION_PROFILES)))
    rows = [
        {
            "M": float(pot.cap),
            "deviation_energies": energies,
            "all_strictly_worse": bool(all(e > e_opt for e in energies)),
        }
        for pot, energies in zip(pots, by_cap)
    ]
    # each deviation energy is affine and non-decreasing in the cap, so every
    # cap above the smallest qualifying one qualifies too
    threshold = min((r["M"] for r in rows if r["all_strictly_worse"]), default=None)
    payload = {
        "eps": eps,
        "admissible_optimum_energy": e_opt,
        "rows": rows,
        "threshold_M": threshold,
        "n_deviation_profiles": len(DEVIATION_PROFILES),
    }
    verdict = "confirmed" if threshold is not None else "inconclusive"
    return Certificate(
        kind="fM_threshold",
        verdict=verdict,
        payload=payload,
        tolerances={"strictness": 0.0},
    )
