"""The unit-cell minimization: closed form, relaxed solver, exhaustive search.

For a two-value weight (alpha on an arc of measure lam around 0, beta on the
complementary arc) the energy of a microscopic profile phi with volume
fraction t is

    F(phi) = 2*J(phi) - 2*mean*t + mean,
    J(phi) = Int_Y Int_Y a(s-r) phi(s) phi(r) ds dr.

For a single arc of length t placed anywhere on the circle (J is rotation
invariant), direct integration of J gives the three-branch closed form
implemented by ``gamma_closed_form``. When alpha <= beta the rearrangement
inequality on the circle shows the arc is the global minimizer, so the closed
form IS the cell minimum. When alpha > beta (expensive short range, cheap mid
range) single arcs are NOT optimal: mass splits into several clumps spaced to
sit in the cheap band, and the exhaustive search returns strictly smaller
energies than any arc. The closed form then still reports the best-arc
energy, which is exactly what the arcs-only search converges to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _accel
from .energy import rect_integral
from .kernel import PeriodicStepKernel
from .util import ResourceLimitError

Arc = Tuple[float, float]

BRUTE_FORCE_CAP = 10_000_000
FFT_MATVEC_THRESHOLD = 1024


def gamma_closed_form(alpha: float, beta: float, lam: float, t: float) -> float:
    """Best single-arc cell energy at volume fraction t (global min if alpha <= beta).

    Branches join continuously at t = lam/2 and t = 1 - lam/2; the formula is
    symmetric under t -> 1 - t and equals the weight mean at t in {0, 1}.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    abar = lam * alpha + (1.0 - lam) * beta
    if t <= lam / 2.0:
        return 2.0 * alpha * t * t - 2.0 * abar * t + abar
    if t <= 1.0 - lam / 2.0:
        return 2.0 * beta * (t * t - t) - 0.5 * (alpha - beta) * lam * lam + abar
    return 2.0 * alpha * (1.0 - t) ** 2 + 2.0 * abar * t - abar


def optimal_profile(t: float, orientation: str = "low_cost_at_zero") -> list:
    """Arc support of the length-t indicator: split at the cell boundary or centered."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return []
    if t == 1.0:
        return [(0.0, 1.0)]
    if orientation == "low_cost_at_zero":
        return [(0.0, t / 2.0), (1.0 - t / 2.0, 1.0)]
    if orientation == "low_cost_at_half":
        return [(0.5 - t / 2.0, 0.5 + t / 2.0)]
    raise ValueError(f"unknown orientation {orientation!r}")


@dataclass(frozen=True)
class CellProfile:
    """Piecewise-constant profile on the n-cell unit grid, values in [0, 1]."""

    values: np.ndarray
    mean: float

    @classmethod
    def from_values(cls, values) -> "CellProfile":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("profile needs at least 2 cells")
        if np.any(v < -1e-15) or np.any(v > 1.0 + 1e-15):
            raise ValueError("profile values must lie in [0, 1]")
        v = np.clip(v, 0.0, 1.0)
        return cls(values=v, mean=float(np.sum(v) / v.size))

    @classmethod
    def from_arcs(cls, arcs: Sequence[Arc], n: int, mode: str = "average") -> "CellProfile":
        """Discretize an arc indicator: exact cell averages, or snap cells to
        {0,1} by majority coverage."""
        if n < 2:
            raise ValueError("n must be at least 2")
        edges = np.arange(n + 1) / n
        v = np.zeros(n)
        for a, b in arcs:
            lo = np.maximum(edges[:-1], a)
            hi = np.minimum(edges[1:], b)
            v += np.maximum(hi - lo, 0.0) * n
        if mode == "average":
            return cls.from_values(v)
        if mode == "snap":
            return cls.from_values((v >= 0.5).astype(float))
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class CellKernelMatrix:
    """Circulant matrix of exact cell-pair integrals, scaled by n^2.

    Entry (i, j) is n^2 * Int_{cell_i x cell_j} a(s - r) ds dr and depends
    only on (j - i) mod n, so only the first row is stored. The quadratic
    form with weights 1/n^2 recovers the exact continuum double integral of
    any piecewise-constant profile.
    """

    n: int
    first_row: np.ndarray
    abar: float

    def entry(self, i: int, j: int) -> float:
        return float(self.first_row[(j - i) % self.n])

    def matvec(self, x: np.ndarray, use_fft: Optional[bool] = None) -> np.ndarray:
        """y_i = sum_j row[(j-i) mod n] x_j; direct by default, FFT for large n.

        The direct path builds the dense matrix from the doubled row r2: row i
        is ``r2[n-i : 2n-i]``, so the rows are windows of r2 read backwards,
        copied once into a contiguous n x n array for one BLAS product. No
        index matrix is formed.
        """
        if use_fft is None:
            use_fft = self.n >= FFT_MATVEC_THRESHOLD
        if use_fft:
            freq = np.conj(np.fft.fft(self.first_row)) * np.fft.fft(x)
            return np.fft.ifft(freq).real
        r2 = np.concatenate([self.first_row, self.first_row])
        return np.ascontiguousarray(sliding_window_view(r2, self.n)[self.n:0:-1]) @ x

    def quad_form(self, x: np.ndarray, use_fft: Optional[bool] = None) -> float:
        return float(x @ self.matvec(x, use_fft=use_fft))


def build_cell_matrix(k: PeriodicStepKernel, n: int) -> CellKernelMatrix:
    if n < 2:
        raise ValueError("n must be at least 2")
    row = np.array(
        [n * n * rect_integral(k, 1.0, 0.0, 1.0 / n, j / n, (j + 1) / n) for j in range(n)]
    )
    return CellKernelMatrix(n=n, first_row=row, abar=k.table.mean)


def cell_energy(K: CellKernelMatrix, phi, use_fft: Optional[bool] = None) -> float:
    """F(phi) = 2*J - 2*mean_weight*t + mean_weight with J the quadratic form."""
    v = phi.values if isinstance(phi, CellProfile) else np.asarray(phi, dtype=float)
    if v.shape != (K.n,):
        raise ValueError(f"profile has {v.shape[0]} cells, matrix expects {K.n}")
    J = K.quad_form(v, use_fft=use_fft) / (K.n * K.n)
    t = float(np.sum(v) / K.n)
    return 2.0 * J - 2.0 * K.abar * t + K.abar


@dataclass(frozen=True)
class CellSolveResult:
    profile: CellProfile
    energy: float
    method: str
    iterations: int
    constraint_residual: float
    converged: bool = True
    extras: dict = field(default_factory=dict)


def project_box_mean(x: np.ndarray, t: float, tol: float = 1e-12, max_iter: int = 500):
    """Dykstra alternation onto {values in [0,1]} intersect {mean = t}."""
    if t <= 0.0:  # the intersection degenerates to a corner point
        return np.zeros_like(x), True
    if t >= 1.0:
        return np.ones_like(x), True
    y = np.clip(x, 0.0, 1.0)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    ok = False
    for _ in range(max_iter):
        w = y + p
        h = w + (t - np.mean(w))
        p = w - h
        w2 = h + q
        y_new = np.clip(w2, 0.0, 1.0)
        q = w2 - y_new
        moved = float(np.max(np.abs(y_new - y)))
        y = y_new
        if abs(np.mean(y) - t) <= tol and moved <= tol:
            ok = True
            break
    return y, ok


def _spectral_norm(K: CellKernelMatrix) -> float:
    """Spectral norm of K/n^2, exactly: max|FFT(first_row)| / n^2.

    A circulant's eigenvalues are the DFT of its first row, and a circulant
    is normal, so its largest |eigenvalue| is its spectral norm (Gray,
    "Toeplitz and Circulant Matrices: A Review").
    """
    return float(np.max(np.abs(np.fft.fft(K.first_row)))) / (K.n * K.n)


def solve_relaxed(
    K: CellKernelMatrix,
    t: float,
    step: Optional[float] = None,
    max_iter: int = 5000,
    tol: float = 1e-12,
    seed: int = 0,
) -> CellSolveResult:
    """Projected gradient on the relaxed cell problem over [0,1]^n, mean = t.

    The quadratic form is indefinite on the constraint tangent space in
    general, so this is a local method; it is seeded from the discretized
    arc profile, the flat profile, and a random feasible point, and reports
    the best iterate found across the three starts.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    n = K.n
    if step is None:
        L = _spectral_norm(K)
        step = 1.0 / (2.0 * L) if L > 0 else 1.0
    rng = np.random.default_rng(seed)
    starts = [
        CellProfile.from_arcs(optimal_profile(t), n).values,
        np.full(n, t),
        rng.uniform(0.0, 1.0, n),
    ]
    best_phi, best_energy, best_iters = None, math.inf, 0
    all_ok = True
    for x0 in starts:
        x, ok0 = project_box_mean(x0, t, tol=1e-12)
        all_ok &= ok0
        best_local = cell_energy(K, x)
        best_x = x.copy()
        it_used = max_iter
        for it in range(max_iter):
            grad = 4.0 * K.matvec(x) / (n * n)
            x_new, okp = project_box_mean(x - step * grad, t, tol=1e-12)
            all_ok &= okp
            e_new = cell_energy(K, x_new)
            if e_new < best_local:
                best_local = e_new
                best_x = x_new.copy()
            if np.max(np.abs(x_new - x)) <= tol:
                it_used = it + 1
                break
            x = x_new
        else:
            all_ok = False
        if best_local < best_energy:
            best_energy = best_local
            best_phi = best_x
            best_iters = it_used
    profile = CellProfile.from_values(best_phi)
    return CellSolveResult(
        profile=profile,
        energy=float(best_energy),
        method="projected_gradient",
        iterations=best_iters,
        constraint_residual=abs(profile.mean - t),
        converged=all_ok,
    )


def _arc_indices(n: int, k_ones: int, r: int) -> np.ndarray:
    return (r + np.arange(k_ones)) % n


def enumeration_size(n: int, k_ones: int) -> int:
    """C(n, k_ones), the subsets an all-subsets search covers; raises
    ResourceLimitError when that exceeds BRUTE_FORCE_CAP."""
    n_comb = math.comb(n, k_ones)
    if n_comb > BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"solve_brute_force: C({n},{k_ones}) = {n_comb} subsets exceed the "
            f"enumeration cap {BRUTE_FORCE_CAP}"
        )
    return n_comb


def solve_brute_force(
    K: CellKernelMatrix, k_ones: int, mode: str = "all_subsets"
) -> CellSolveResult:
    """Exact minimizer over {0,1} profiles with k_ones ones.

    mode "all_subsets" covers every k-subset of cells (capped at 1e7
    combinations). The energy is rotation invariant, so one subset per
    rotation class is scored: its lexicographically smallest rotation,
    which contains cell 0. Representatives are visited in lexicographic
    order, and a subset replaces the incumbent only when it is lower by more
    than 1e-12 * max(1, k_ones^2 * max|row|), so near-ties keep the subset
    seen first. Energy and minimizer are those of a scan over all k-subsets
    in lexicographic order; the minimizer is reported in its canonical
    (smallest) rotation. ``iterations`` is still C(n, k_ones), the number
    of subsets covered, not the number scored.
    mode "arcs_only" restricts to contiguous cyclic runs.
    """
    n = K.n
    if not 0 <= k_ones <= n:
        raise ValueError("k_ones must lie in [0, n]")
    t = k_ones / n
    row = K.first_row
    tie_tol = 1e-12 * max(1.0, k_ones * k_ones * float(np.max(np.abs(row))))
    if mode == "all_subsets":
        iterations = enumeration_size(n, k_ones)
        raw, idx = _accel.brute_force_search(row, n, k_ones, tie_tol)
    elif mode == "arcs_only":
        raw, idx = math.inf, np.zeros(0, dtype=np.int64)
        if k_ones == 0:
            raw = 0.0
        else:
            for r in range(n):
                cand = _arc_indices(n, k_ones, r)
                d = (cand[None, :] - cand[:, None]) % n
                s = float(np.sum(row[d]))
                if s < raw - tie_tol:
                    raw, idx = s, cand
        iterations = n if k_ones else 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    values = np.zeros(n)
    values[idx] = 1.0
    J = raw / (n * n)
    energy = 2.0 * J - 2.0 * K.abar * t + K.abar
    return CellSolveResult(
        profile=CellProfile.from_values(values),
        energy=float(energy),
        method="brute_force",
        iterations=iterations,
        constraint_residual=0.0,
        extras={"mode": mode, "indices": np.sort(idx).tolist()},
    )


def is_cyclic_arc(indices: Sequence[int], n: int) -> bool:
    """True when the index set forms one contiguous run modulo n."""
    idx = sorted(set(int(i) for i in indices))
    k = len(idx)
    if k in (0, n):
        return True
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    runs = int(np.sum(present & ~np.roll(present, 1)))
    return runs == 1
