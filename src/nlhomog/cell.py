"""The unit-cell minimization: closed form, relaxed solver, exhaustive search.

For a two-value weight (alpha on an arc of measure lam around 0, beta on the
complementary arc) the energy of a microscopic profile phi with volume
fraction t is

    F(phi) = 2*J(phi) - 2*mean*t + mean,
    J(phi) = Int_Y Int_Y a(s-r) phi(s) phi(r) ds dr.

For a single arc of length t placed anywhere on the circle (J is rotation
invariant), direct integration of J gives the three-branch closed form
implemented by ``gamma_closed_form``. ``cell_minimum`` alone answers what
the cell minimum is and which profile attains it; its docstring says when
the arc is that minimum. Where it is not (alpha > beta) the exhaustive
search returns strictly smaller energies than any arc, and the closed form
still reports the best-arc energy, which is exactly what the arcs-only
search converges to. The exhaustive search scores one subset per rotation
class, a sum of k_ones^2 entries, so its cap ``BRUTE_FORCE_CAP`` counts
those terms, rotation classes times k_ones^2, not subsets; the arcs-only
search costs O(k_ones) and has no cap of its own. Every limit of a search
(cell count, k_ones range, mode, the term cap) is decided by
``enumeration_size`` alone; ``solve_brute_force`` and the CLI call it before
any work.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import util
from .energy import rect_integral
from .kernel import PeriodicStepKernel, check_lambda_parameters, lambda_weight_mean, two_product
from .states import Arc
from .util import ResourceLimitError

BRUTE_FORCE_CAP = 2**31  # all-subsets terms: rotation classes x k_ones^2
RELAXED_TOL = 1e-12  # solve_relaxed: largest change of one step
RELAXED_MAX_ITER = 5000


def gamma_closed_form(alpha: float, beta: float, lam: float, t: float) -> float:
    """Best single-arc cell energy at volume fraction t; ``cell_minimum``
    says when it is the cell minimum.

    Branches join continuously at t = lam/2 and t = 1 - lam/2; the formula is
    symmetric under t -> 1 - t and equals the weight mean at t in {0, 1}.
    """
    check_lambda_parameters(alpha, beta, lam)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    abar = lambda_weight_mean(alpha, beta, lam)
    if t <= lam / 2.0:
        return 2.0 * alpha * t * t - 2.0 * abar * t + abar
    if t <= 1.0 - lam / 2.0:
        return 2.0 * beta * (t * t - t) - 0.5 * (alpha - beta) * lam * lam + abar
    return 2.0 * alpha * (1.0 - t) ** 2 + 2.0 * abar * t - abar


def optimal_profile(t: float) -> list:
    """Arc support of the length-t indicator, centered on 0 (split at the
    cell boundary)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return []
    if t == 1.0:
        return [(0.0, 1.0)]
    return [(0.0, t / 2.0), (1.0 - t / 2.0, 1.0)]


@dataclass(frozen=True)
class CellMinimum:
    """The cell minimum at one volume fraction and the arcs of the cell
    profile that attains it."""

    energy: float
    arcs: tuple


def cell_minimum(alpha: float, beta: float, lam: float, t: float) -> CellMinimum:
    """The cell minimum of the (alpha, beta, lam) weight at volume fraction t
    and the profile that attains it: the one source of the constant-target
    limit (t = 1/2) and of the cell profile its recovery sequences repeat.

    It is the centred arc of length t (``optimal_profile``) and its energy
    (``gamma_closed_form``, whose checks run first). For alpha <= beta the arc
    is the minimum, by rearrangement on the circle (Baernstein & Taylor, Duke
    Math. J. 1976). For alpha > beta it is only an upper bound: mass splits
    into clumps that sit in the cheap mid-range band, and at (2, 1, 1/2) and
    t = 1/2 three arcs of length 1/6 cost 17/24 against the arc's 7/8.
    """
    energy = gamma_closed_form(alpha, beta, lam, t)
    return CellMinimum(energy=energy, arcs=tuple(optimal_profile(t)))


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
    def from_arcs(cls, arcs: Sequence[Arc], n: int) -> "CellProfile":
        """Discretize an arc indicator by its exact cell averages.

        Cells inside an arc count exactly 1: their width times n is off by
        a few ulps, which at n in the thousands leaves [0, 1].
        """
        if n < 2:
            raise ValueError("n must be at least 2")
        edges = np.arange(n + 1) / n
        v = np.zeros(n)
        for a, b in arcs:
            lo = np.maximum(edges[:-1], a)
            hi = np.minimum(edges[1:], b)
            cover = np.maximum(hi - lo, 0.0) * n
            # cells first..end-1 lie in [a, b]: edges[first] >= a, edges[end] <= b
            first = np.searchsorted(edges, a)
            end = np.searchsorted(edges, b, side="right") - 1
            cover[first:end] = 1.0
            v += cover
        return cls.from_values(v)


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

    @cached_property
    def conj_spectrum(self) -> np.ndarray:
        """Conjugate DFT of the first row, computed once: the matvec's
        multiplier, and its moduli are the circulant's eigenvalue moduli."""
        return np.conj(np.fft.fft(self.first_row))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y_i = sum_j row[(j-i) mod n] x_j by the FFT, in O(n log n).

        A circulant is diagonalized by the DFT (Gray, "Toeplitz and Circulant
        Matrices: A Review"), so y = ifft(conj(fft(row)) * fft(x)), with
        ``conj_spectrum`` built on the first call and reused by every later
        one; no n x n matrix is formed. One call takes ~12 us at n = 64,
        ~17 us at n = 256 and ~0.1 ms at n = 4096 on one core of a 2-vCPU VM.
        """
        return np.fft.ifft(self.conj_spectrum * np.fft.fft(x)).real


def check_cell_count(n: int) -> None:
    """Refuse a grid of fewer than 2 or more than ``util.MAX_INTERVALS``
    cells, the limits of ``build_cell_matrix`` and ``enumeration_size``."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > util.MAX_INTERVALS:
        raise ResourceLimitError(f"build_cell_matrix: {n} cells exceed the cap {util.MAX_INTERVALS}")


def build_cell_matrix(k: PeriodicStepKernel, n: int) -> CellKernelMatrix:
    """The n-cell matrix of the weight k, one ``rect_integral`` per entry of
    the first row; an out-of-range n is refused before any entry is computed."""
    check_cell_count(n)
    row = np.array(
        [n * n * rect_integral(k, 1.0, 0.0, 1.0 / n, j / n, (j + 1) / n) for j in range(n)]
    )
    return CellKernelMatrix(n=n, first_row=row, abar=k.table.mean)


def cell_energy(K: CellKernelMatrix, phi) -> float:
    """F(phi) = 2*J - 2*mean_weight*t + mean_weight with J the quadratic form."""
    v = phi.values if isinstance(phi, CellProfile) else np.asarray(phi, dtype=float)
    if v.shape != (K.n,):
        raise ValueError(f"profile has {v.shape[0]} cells, matrix expects {K.n}")
    return _energy_and_kv(K, v)[0]


def _energy_and_kv(K: CellKernelMatrix, v: np.ndarray):
    """cell_energy of v and the matvec K v it is computed from."""
    Kv = K.matvec(v)
    J = float(v @ Kv) / (K.n * K.n)
    t = float(np.sum(v) / K.n)
    return _assemble_energy(K, J, t), Kv


def _assemble_energy(K: CellKernelMatrix, J: float, t: float) -> float:
    """F = 2*J - 2*mean_weight*t + mean_weight from the quadratic form J."""
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


def project_box_mean(x: np.ndarray, t: float):
    """Projection of clip(x, 0, 1) onto {values in [0,1]} intersect {mean = t}.

    That is the projection of x only when x lies in the box; t <= 0 and
    t >= 1 return the corners 0 and 1. For y = clip(x, 0, 1) one bound binds:
    0 when mean(y) > t, giving max(y - tau, 0) with tau from the values sorted
    descending and their cumulative sums (Wang & Lu, "Projection onto the
    capped simplex", 2015); else 1, the same problem on 1 - y. Returns
    (y, True): the projection is exact, so the second item is always True.
    """
    if t <= 0.0:  # the intersection degenerates to a corner point
        return np.zeros_like(x), True
    if t >= 1.0:
        return np.ones_like(x), True
    y = np.clip(x, 0.0, 1.0)
    mean = np.mean(y)
    if mean == t:
        return y, True
    flip = mean < t
    z, target = (1.0 - y, (1.0 - t) * y.size) if flip else (y, t * y.size)
    s = np.sort(z)[::-1]
    tau = (np.cumsum(s) - target) / np.arange(1, z.size + 1)
    rho = np.flatnonzero(s > tau)[-1]
    w = np.maximum(z - tau[rho], 0.0)
    return (1.0 - w if flip else w), True


def _spectral_norm(K: CellKernelMatrix) -> float:
    """Spectral norm of K/n^2, exactly: max|FFT(first_row)| / n^2.

    A circulant's eigenvalues are the DFT of its first row, and a circulant
    is normal, so its largest |eigenvalue| is its spectral norm (Gray,
    "Toeplitz and Circulant Matrices: A Review").
    """
    return float(np.max(np.abs(K.conj_spectrum))) / (K.n * K.n)


def solve_relaxed(K: CellKernelMatrix, t: float, seed: int = 0) -> CellSolveResult:
    """Projected gradient on the relaxed cell problem over [0,1]^n, mean = t.

    The step is 1/(2L), L the spectral norm of K/n^2. A start stops when one
    step changes no value by more than RELAXED_TOL, or after RELAXED_MAX_ITER
    steps; ``converged`` says every start stopped by RELAXED_TOL. The form is
    indefinite on the constraint tangent space in general, so this local
    method starts from the discretized arc profile, the flat profile and a
    random feasible point, and reports the best iterate of the three starts.
    """
    n = K.n
    # optimal_profile refuses a t outside [0, 1] before the spectrum's FFT
    rng = np.random.default_rng(seed)
    starts = [
        CellProfile.from_arcs(optimal_profile(t), n).values,
        np.full(n, t),
        rng.uniform(0.0, 1.0, n),
    ]
    L = _spectral_norm(K)
    step = 1.0 / (2.0 * L) if L > 0 else 1.0
    best_phi, best_energy, best_iters = None, math.inf, 0
    converged = True
    for x0 in starts:
        x, _ = project_box_mean(x0, t)
        best_local, Kx = _energy_and_kv(K, x)
        best_x = x.copy()
        it_used = RELAXED_MAX_ITER
        for it in range(RELAXED_MAX_ITER):
            grad = 4.0 * Kx / (n * n)
            x_new, _ = project_box_mean(x - step * grad, t)
            e_new, Kx = _energy_and_kv(K, x_new)
            if e_new < best_local:
                best_local = e_new
                best_x = x_new.copy()
            if np.max(np.abs(x_new - x)) <= RELAXED_TOL:
                it_used = it + 1
                break
            x = x_new
        else:
            converged = False
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
        converged=converged,
    )


def rotation_classes(n: int, k: int) -> int:
    """Rotation classes of the k-subsets of Z_n, by Burnside's lemma:
    (1/n) * sum over d | gcd(n, k) of phi(d) * C(n/d, k/d); 1 for k in {0, n}."""
    if k in (0, n):
        return 1
    g = math.gcd(n, k)
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    phi = [sum(math.gcd(j, d) == 1 for j in range(1, d + 1)) for d in divisors]
    return sum(p * math.comb(n // d, k // d) for p, d in zip(phi, divisors)) // n


# ---------------------------------------------------------------------------
# exhaustive subset search over the circulant quadratic form
#
# s(S) = sum_{i,j in S} row[(j-i) mod n] is invariant under rotating S, so
# only one subset per rotation class is scored: the lexicographically
# smallest rotation, which contains cell 0. Listed in lexicographic order,
# these representatives are exactly the subsets at which a scan of all
# k-subsets in lexicographic order first meets each class.
# ---------------------------------------------------------------------------

# rows per block of necklace_gaps and children per expansion step; also the most
# entries (rows x k) of a block of several rows that brute_force_search scores a
# position at a time (a one-row block always is)
SEARCH_CHUNK = 4096
STEP_DEPTH = 16  # deeper steps build fewer children: at most SEARCH_CHUNK * STEP_DEPTH gaps


def necklace_gaps(n, k):
    """Gap sequences of the k-subsets of Z_n that are lexicographically
    smallest among their rotations, in lexicographic order, as a stream of
    (m, k) blocks.

    The subset {0, g_1, g_1 + g_2, ...} has cyclic gaps g_1..g_k (each >= 1,
    summing to n); it is the smallest rotation of its class exactly when its
    gap sequence is the smallest of the k rotations of that sequence, i.e. a
    necklace. The FKM tree (Ruskey & Sawada, SIAM J. Comput. 1999) builds
    prenecklaces by ``g_t >= g_{t-p}``, where the period p resets to t when
    g_t grows; the last gap is forced to n minus the others.

    Every gap is at least g_1, and no prefix is built that the gaps still to
    come cannot complete. Let R be the length of the first run of g_1 and
    suppose a gap above g_1 has come. Two facts hold for a necklace: no later
    run of g_1 is longer than R, and it does not end in g_1; in either case
    a rotation would start with R + 1 copies of g_1 and so be smaller. The m
    gaps still to come thus hold no run of more than R copies of g_1 and end
    above g_1, so at least ceil(m / (R + 1)) of them exceed g_1 and they sum
    to at least m g_1 + ceil(m / (R + 1)). A prefix g_1..g_t that is all g_1
    may go on with g_1 under the plain bound m g_1; a larger value makes
    R = t.

    The tree is expanded in numpy, a group of parents at a time: each
    parent's children are a ramp of values from g_{t-p}, laid out by
    ``np.repeat``, so children listed parent by parent stay in lexicographic
    order. Parents wait on one depth-first stack of blocks, at most one per
    depth, the deepest on top. A step pops the top block and expands its
    first parents, at least one and as many as give at most SEARCH_CHUNK
    children, fewer past depth STEP_DEPTH so that a step holds at most
    SEARCH_CHUNK * STEP_DEPTH gaps (a single parent may have up to n
    children). It pushes the other parents back, then the children that
    have a child of their own on top, so memory is
    O(SEARCH_CHUNK * k * min(k, STEP_DEPTH)). Necklaces are passed on in
    blocks of SEARCH_CHUNK rows, the last one shorter. Gaps are int16, or
    int32 from n = 2^15. Needs 1 <= k <= n.
    """
    dtype = np.int16 if n < 2**15 else np.int32
    if k == 1:
        yield np.full((1, 1), n, dtype=dtype)
        return
    # each block holds prefixes g_1..g_t in lexicographic order, as (gaps,
    # sum, period, length of the first run of g_1, first value of g_{t+1},
    # number of values of g_{t+1}); the empty prefix's g_1 runs from 1 to n // k
    one = np.ones(1, dtype=dtype)
    stack = [(np.zeros((1, 0), dtype=dtype), one - 1, one, one - 1, one, one * (n // k))]
    held, rows = [], 0  # necklaces not yet passed on
    while stack:
        G, S, P, R, start, cnt = stack.pop()
        t = G.shape[1]
        limit = max(SEARCH_CHUNK * STEP_DEPTH // max(t + 1, STEP_DEPTH), 1)
        cum = np.cumsum(cnt)
        m = max(int(np.searchsorted(cum, limit, side="right")), 1)
        if m < cnt.size:
            stack.append(tuple(a[m:] for a in (G, S, P, R, start, cnt)))
        rep = np.repeat(np.arange(m), cnt[:m])
        ramp = np.arange(rep.size) - np.repeat(cum[:m] - cnt[:m], cnt[:m])
        v = start[rep] + ramp
        child = np.empty((rep.size, t + 1), dtype=dtype)
        child[:, :-1] = G[rep]
        child[:, -1] = v
        S = S[rep] + v
        P = np.where(ramp == 0, P[rep], t + 1)  # g_{t+1} = g_{t+1-p} keeps the period
        R = R[rep] + ((R[rep] == t) & (v == child[:, 0]))
        del G, rep, ramp, v, start, cnt, cum
        if t + 1 < k - 1:
            # g_{t+2} runs from g_{t+2-p} to what leaves the later gaps their bound
            start = child[np.arange(child.shape[0]), t + 1 - P].astype(np.intp)
            later = k - t - 2
            top = n - S - later * child[:, 0].astype(np.intp)
            cnt = top - (later + R) // (R + 1) - start + 1
            cnt = np.maximum(cnt, (R == t + 1) & (top >= start))  # all g_1: plain bound
            live = cnt > 0
            if np.any(live):
                # every entry is at most n: the stack holds them in the gap dtype
                stack.append(tuple(a[live].astype(dtype) for a in (child, S, P, R, start, cnt)))
            continue
        # the last gap is forced; keep the sequences that are necklaces
        last = n - S
        ref = child[np.arange(child.shape[0]), k - 1 - P]  # g_{k-p}
        keep = (last > ref) | ((last == ref) & (k % P == 0))
        held.append(np.concatenate([child[keep], last[keep, None].astype(dtype)], axis=1))
        rows += held[-1].shape[0]
        if rows >= SEARCH_CHUNK:
            block = np.concatenate(held)
            full = rows - rows % SEARCH_CHUNK
            for lo in range(0, full, SEARCH_CHUNK):
                yield block[lo:lo + SEARCH_CHUNK]
            held, rows = [block[full:]], rows - full
    if rows:
        yield np.concatenate(held)


MEMO_POSITIONS = 2**20  # cell positions the search memo holds over all (n, k): 2 MB at int16
_memo = {}  # (n, k) -> the representatives' positions, a tuple of read-only blocks
_memo_lock = threading.Lock()


def _positions(n, k):
    """The cell positions {0, g_1, g_1 + g_2, ...} of the representatives
    of ``necklace_gaps``, in its blocks and order, in its gap dtype.

    The representatives depend only on (n, k), never on the weight, so they
    are kept in a memo keyed by (n, k), and a later search on a kept grid
    only scores. The memo holds at most ``MEMO_POSITIONS`` positions over
    all keys. A grid is admitted before its first block iff its exact size,
    ``rotation_classes(n, k) * k`` positions, is at most ``MEMO_POSITIONS``:
    an admitted grid is collected while it streams and kept once it has run
    to its end, emptying the memo first if it would push the memo past
    ``MEMO_POSITIONS``; any other grid streams and holds nothing. The memo
    holds nothing that depends on the weight and changes no result.
    """
    kept = _memo.get((n, k))
    if kept is not None:
        yield from kept
        return
    size = rotation_classes(n, k) * k
    blocks = [] if size <= MEMO_POSITIONS else None
    for gaps in necklace_gaps(n, k):
        idx = np.zeros_like(gaps)
        np.cumsum(gaps[:, :-1], axis=1, out=idx[:, 1:])
        if blocks is not None:
            idx.flags.writeable = False
            blocks.append(idx)
        yield idx
    if blocks is not None:
        with _memo_lock:
            if (n, k) not in _memo:
                if size + sum(b.size for v in _memo.values() for b in v) > MEMO_POSITIONS:
                    _memo.clear()
                _memo[n, k] = tuple(blocks)


def brute_force_search(row, n, k, tie_tol):
    """Minimize s(S) over k-subsets of Z_n, one subset per rotation class.

    Representatives come from ``necklace_gaps`` in lexicographic order, a
    block at a time, as cell positions from ``_positions``, so that memory
    stays O(SEARCH_CHUNK * k * min(k, STEP_DEPTH)) however many classes
    there are, besides the memo and an enumeration collected for it, at most
    ``MEMO_POSITIONS`` positions each. Each is scored with the same sum, in
    the same order, as a scan of all subsets would use (``row2[n - i_a + i_b]`` with
    ``row2 = row`` repeated twice is ``row[(i_b - i_a) mod n]``); a subset
    replaces the incumbent only when it is better by more than tie_tol. A
    later rotation of a class is a plain shift, whose sum is bit-identical,
    or a wrapped one, which differs only by rounding, so neither could
    replace it: the result equals that of the full lexicographic scan,
    whether or not the positions came from the memo.

    A block of m rows is scored in one of two layouts, each adding the terms
    in that order. When m * k <= SEARCH_CHUNK or m == 1, a position a at a
    time: one gather puts row2[n - i_a + i_b] for every b in columns 1..k of
    an m x (k + 1) array whose column 0 holds the running sums, and a
    cumulative sum along the row, sequential by definition, folds them in.
    Larger blocks add one (a, b) term at a time to all m rows. Only block
    records reach the sequential incumbent test: an earlier row q of the
    block was taken, leaving an incumbent at most s_q, or refused, leaving
    one at most s_q + tie_tol, so a row p can replace the incumbent only if
    s_p is below every earlier s_q and below the block's starting incumbent
    minus tie_tol.
    """
    if k == 0:
        return 0.0, np.zeros(0, dtype=np.int64)
    row2 = np.concatenate([row, row])
    best = np.inf
    best_idx = np.arange(k)
    for idx in _positions(n, k):
        m = idx.shape[0]
        if m * k <= SEARCH_CHUNK or m == 1:
            at = idx.astype(np.intp)
            base = n - at
            terms = np.zeros((m, k + 1))
            for a in range(k):
                terms[:, 1:] = row2[base[:, a, None] + at]
                np.cumsum(terms, axis=1, out=terms)
                terms[:, 0] = terms[:, -1]
            s = terms[:, 0]
        else:
            s = np.zeros(m)
            for a in range(k):
                base = n - idx[:, a].astype(np.intp)
                for b in range(k):
                    s += row2[base + idx[:, b]]
        # the lowest sum before each row; fmin, as a NaN sum is never taken and bounds nothing
        earlier = np.fmin.accumulate(np.concatenate([[np.inf], s[:-1]]))
        for pos in np.nonzero((s < best - tie_tol) & (s < earlier))[0]:
            if s[pos] < best - tie_tol:
                best = float(s[pos])
                best_idx = idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)


def enumeration_size(n: int, k_ones: int, mode: str = "all_subsets") -> int:
    """The subsets a search of mode over n cells covers: C(n, k_ones) for
    "all_subsets", the n arcs (1 when k_ones is 0) for "arcs_only". The one
    place that decides a search's limits.

    Refuses an n outside [2, ``util.MAX_INTERVALS``] by ``check_cell_count``;
    with ValueError a k_ones outside [0, n] and an unknown mode; with
    ResourceLimitError an all-subsets search of more than ``BRUTE_FORCE_CAP``
    terms: one subset is scored per rotation class, a sum of k_ones^2
    entries, so the terms are the classes times k_ones^2. An arcs-only
    search costs O(k_ones) and is refused for nothing else. The message
    gives the subsets and classes as powers of two, short however many
    digits they have. A class holds at most n subsets, so C(n, k_ones)/n
    bounds the class count below; when that bound times k_ones^2, from
    ``math.lgamma``, is above twice the cap, the search is refused without
    the exact counts, and the message gives the class bound rounded up to
    0.1 in the exponent, which never reads below the exact count's rounded
    exponent.
    """
    check_cell_count(n)
    if not 0 <= k_ones <= n:
        raise ValueError("k_ones must lie in [0, n]")
    if mode == "arcs_only":
        return n if k_ones else 1
    if mode != "all_subsets":
        raise ValueError(f"unknown mode {mode!r}")
    log2_comb = (
        math.lgamma(n + 1) - math.lgamma(k_ones + 1) - math.lgamma(n - k_ones + 1)
    ) / math.log(2.0)
    log2_classes = log2_comb - math.log2(n)
    # k_ones = 0 scores nothing; counting it as 1 term only routes it to the exact test
    if log2_classes + 2.0 * math.log2(max(k_ones, 1)) <= math.log2(BRUTE_FORCE_CAP) + 1.0:
        n_comb = math.comb(n, k_ones)
        classes = rotation_classes(n, k_ones)
        if classes * k_ones * k_ones <= BRUTE_FORCE_CAP:
            return n_comb
        log2_comb, log2_classes = math.log2(n_comb), math.log2(classes)
    else:
        log2_classes = math.ceil(10.0 * log2_classes) / 10.0
    raise ResourceLimitError(
        f"solve_brute_force: C({n},{k_ones}) ~ 2^{log2_comb:.1f} subsets in "
        f"~ 2^{log2_classes:.1f} rotation classes of {k_ones}^2 terms exceed the "
        f"enumeration cap {BRUTE_FORCE_CAP} terms"
    )


def solve_brute_force(
    K: CellKernelMatrix, k_ones: int, mode: str = "all_subsets"
) -> CellSolveResult:
    """Exact minimizer over {0,1} profiles with k_ones ones.

    ``enumeration_size`` checks every limit before the search starts.
    mode "all_subsets" covers every k-subset of cells (capped at
    BRUTE_FORCE_CAP terms, rotation classes times k_ones^2). The energy is
    rotation invariant, so one subset per rotation class is scored: its
    lexicographically smallest rotation, which contains cell 0.
    Representatives are visited in lexicographic order, and a subset
    replaces the incumbent only when it is lower by more than
    1e-12 * max(1, k_ones^2 * max|row|), so near-ties keep the subset seen
    first. Both modes sum the row in units of a power
    of two 2^e near its largest entry, and scale tie_tol alike, so that no
    sum of k_ones^2 entries overflows; the energy takes raw / n^2 back to
    scale by 2^e. A power-of-two scale is exact and commutes with rounding,
    so every result is that of the unscaled sums wherever those are finite.
    Energy and minimizer are those of a scan over all k-subsets
    in lexicographic order; the minimizer is reported in its canonical
    (smallest) rotation. ``iterations`` is C(n, k_ones), the number of
    subsets covered, not the number scored. The representatives depend only
    on (n, k_ones), so a later search on the same grid, with any weight,
    reads them from the memo of ``_positions`` and only scores.
    mode "arcs_only" restricts to contiguous cyclic runs. Every rotation of
    an arc holds the same k_ones^2 entries row[(j - i) mod n], so only the
    arc at cell 0 is scored, by the exactly rounded sum of those entries in
    O(k_ones): the offset d = j - i in (-k_ones, k_ones) occurs k_ones - |d|
    times, each product is split exactly by ``two_product`` (whose split
    overflows above ~1.3e300, but the scaled entries lie in [-1, 1]) and the
    parts are added by ``math.fsum`` (Shewchuk, 1997). ``iterations`` is n,
    the arcs covered (1 when k_ones is 0).
    """
    n = K.n
    iterations = enumeration_size(n, k_ones, mode)
    t = k_ones / n
    # the sums are formed in units of 2^e, with the scaled row in [-1, 1]
    e = math.frexp(float(np.max(np.abs(K.first_row))))[1]
    row = np.ldexp(K.first_row, -e)
    if mode == "all_subsets":
        tie_tol = 1e-12 * max(math.ldexp(1.0, -e), k_ones * k_ones * float(np.max(np.abs(row))))
        raw, idx = brute_force_search(row, n, k_ones, tie_tol)
    else:
        idx = np.arange(k_ones)
        d = np.arange(1 - k_ones, k_ones)
        parts = two_product(k_ones - np.abs(d).astype(float), row[d % n])
        raw = math.fsum(np.concatenate(parts))
    values = np.zeros(n)
    values[idx] = 1.0
    energy = _assemble_energy(K, math.ldexp(raw / (n * n), e), t)
    return CellSolveResult(
        profile=CellProfile.from_values(values),
        energy=float(energy),
        method="brute_force",
        iterations=iterations,
        constraint_residual=0.0,
        extras={"mode": mode, "indices": np.sort(idx).tolist()},
    )


def compare_with_arcs(K: CellKernelMatrix, k_ones: int):
    """(all-subsets result, arcs-only result, whether their minima agree
    within 1e-9): the check that arcs are optimal at k_ones ones."""
    r_all = solve_brute_force(K, k_ones, mode="all_subsets")
    r_arc = solve_brute_force(K, k_ones, mode="arcs_only")
    return r_all, r_arc, abs(r_all.energy - r_arc.energy) <= 1e-9


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
