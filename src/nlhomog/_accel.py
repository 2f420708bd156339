"""Hot numeric kernels: the circle sum behind both energies, and subset search.

Both energy sums reduce to one primitive on the unit circle. For phases
``theta_b = x_b/eps mod 1``, weights ``c_b`` and a 1-periodic piecewise
quadratic ``g`` (segment s starts at ``beta_s``:
``g(u) = q0_s + q1_s (u - beta_s) + q2_s (u - beta_s)^2``), ``circle_field``
returns

    F(theta_a) = sum_b c_b g((theta_a - theta_b) mod 1)

at every phase in O(m P log P) for P phases and m segments: the phases and
their copies ``theta_b - 1`` are sorted once, every b has exactly one copy in
``(theta - 1, theta]``, and the copies whose difference falls in segment s
fill the window ``(theta - beta_{s+1}, theta - beta_s]``, which two
``searchsorted`` calls locate. Prefix sums of ``c``, ``c*phi`` and
``c*phi^2`` then give each window's sum of ``c_b g(theta - phi_b)`` in O(1).
Windows are closed on the right, so a difference that lands exactly on
``beta_s`` belongs to segment s, matching the left-closed segments of the
weight. The prefix sums of ``c*phi`` and ``c*phi^2`` are accumulated in
``np.longdouble``: in double precision their rounding error grows with P and
reached ~1e-12 relative in the energy at P = 6e5, while with the 64-bit
mantissa of x86-64 long doubles the energy stays within a few ulps up to
P = 2e6 (see ``energy``). Where numpy's long double is plain double the
result loses that margin but not its correctness.

- ``pair_energy`` (exact): with ``D^l`` the signed endpoint measure of level l
  (+1 at right ends, -1 at left ends of its intervals) and ``S_l`` its total
  length, ``E = abar sum_lm w_lm S_l S_m - eps^2 sum_lm w_lm D^l . F^m`` with
  ``g = B_per``, the periodic part of the weight's second antiderivative.
- ``quadrature_energy`` (oracle): the midpoint sum with ``g = a`` itself and
  ``c`` the cell lengths of each level; it never reads the ``B_per`` table.

The L^2 level-pair terms are added with ``math.fsum``, so the result does not
depend on the order of the levels.

``brute_force_search`` scores one k-subset per rotation class of the cell
grid (see ``necklace_gaps``). Every kernel here is plain numpy and Python;
numba is used nowhere. ``HAVE_NUMBA`` (numba importable) and
``USE_NUMBA`` (that, unless HOMOG_DISABLE_NUMBA=1 is set at import) select
no code path: they are kept only because benchmark reports record them.
"""

from __future__ import annotations

import importlib.util
import math
import os
from array import array

import numpy as np

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
_flag = os.environ.get("HOMOG_DISABLE_NUMBA", "0").strip().lower()
USE_NUMBA = HAVE_NUMBA and _flag not in ("1", "true", "yes")


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


def circle_field(theta, weights, kbp, q0, q1=None, q2=None):
    """F[k, a] = sum_b weights[k, b] g((theta[a] - theta[b]) mod 1).

    ``theta`` holds phases in [0, 1) from ``phases``; ``weights`` has one row
    per field. ``g`` has segments starting at ``kbp`` with coefficients
    ``q0, q1, q2``; leaving out q1 and q2 makes it piecewise constant.
    """
    order = np.argsort(theta, kind="stable")
    ts = theta[order]
    phi = np.concatenate([ts - 1.0, ts])
    edges = np.append(kbp, 1.0)
    # window of segment s is phi[cut[s+1]:cut[s]], i.e. (ts - edges[s+1], ts - edges[s]]
    cut = [np.searchsorted(phi, ts - e, side="right") for e in edges]
    quadratic = q1 is not None and (np.any(q1) or np.any(q2))
    out = np.empty((weights.shape[0], theta.size))
    for k, w in enumerate(weights):
        c = np.tile(w[order], 2)
        pre0 = _cumsum0(c)
        if quadratic:
            c *= phi
            pre1 = _cumsum0(c, np.longdouble)
            c *= phi
            pre2 = _cumsum0(c, np.longdouble)
        del c
        F = np.zeros(theta.size)
        for s in range(edges.size - 1):
            lo, hi = cut[s + 1], cut[s]
            C0 = pre0[hi] - pre0[lo]
            if not quadratic:
                F += q0[s] * C0
                continue
            C1 = (pre1[hi] - pre1[lo]).astype(float)
            C2 = (pre2[hi] - pre2[lo]).astype(float)
            d = ts - edges[s]
            # sum_b c_b g_s(d - phi_b), expanded in powers of d
            F += q0[s] * C0 + q1[s] * (d * C0 - C1) + q2[s] * (d * (d * C0 - 2.0 * C1) + C2)
        out[k, order] = F
    return out


def _level_pair_sum(wl, c, F, scale):
    """The terms scale * wl[l, m] * (c[l] . F[m]) of the nonzero weights."""
    L = wl.shape[0]
    return [
        scale * wl[l, m] * float(np.sum(c[l] * F[m]))
        for l in range(L)
        for m in range(L)
        if wl[l, m] != 0.0
    ]


# ---------------------------------------------------------------------------
# exact pair-sum energy: sum_ij w_ij * Int_{I_i x I_j} a((x-y)/eps)
# ---------------------------------------------------------------------------

def pair_energy(endpoints, lengths, level_idx, wl, kbp, q0, q1, q2, abar, eps):
    """Exact rectangle sum; ``level_idx`` maps each interval to a row/column
    of the small level weight matrix ``wl``."""
    L = wl.shape[0]
    P = lengths.shape[0]
    D = np.zeros((L, P + 1))
    D[level_idx, np.arange(P)] = -1.0
    D[level_idx, np.arange(1, P + 1)] += 1.0
    S = np.bincount(level_idx, weights=lengths, minlength=L)
    F = circle_field(phases(endpoints, eps), D, kbp, q0, q1, q2)
    area = [abar * wl[l, m] * S[l] * S[m] for l in range(L) for m in range(L)]
    return math.fsum(area + _level_pair_sum(wl, D, F, -eps * eps))


# ---------------------------------------------------------------------------
# midpoint tensor quadrature: sum_cd a((x_c - x_d)/eps) w[iu_c, iu_d] l_c l_d
# ---------------------------------------------------------------------------

def quadrature_energy(centers, lengths, iu, w, kbp, kvals, eps):
    L = w.shape[0]
    c = np.zeros((L, lengths.shape[0]))
    c[iu, np.arange(lengths.shape[0])] = lengths
    F = circle_field(phases(centers, eps), c, kbp, kvals)
    return math.fsum(_level_pair_sum(w, c, F, 1.0))


# ---------------------------------------------------------------------------
# exhaustive subset search over the circulant quadratic form
#
# s(S) = sum_{i,j in S} row[(j-i) mod n] is invariant under rotating S, so
# only one subset per rotation class is scored: the lexicographically
# smallest rotation, which contains cell 0. Listed in lexicographic order,
# these representatives are exactly the subsets at which a scan of all
# k-subsets in lexicographic order first meets each class.
# ---------------------------------------------------------------------------

def necklace_gaps(n, k):
    """Gap sequences of the k-subsets of Z_n that are lexicographically
    smallest among their rotations, in lexicographic order, as a flat array.

    The subset {0, g_1, g_1 + g_2, ...} has cyclic gaps g_1..g_k (each >= 1,
    summing to n); it is the smallest rotation of its class exactly when its
    gap sequence is the smallest of the k rotations of that sequence, i.e. a
    necklace. The FKM recursion (Ruskey & Sawada, SIAM J. Comput. 1999)
    builds prenecklaces by ``g_t >= g_{t-p}``, where the period p resets to t
    when g_t grows; every gap is at least g_1, which bounds each g_t, and the
    last gap is forced to n minus the others. Needs 1 <= k <= n.
    """
    out = array("h" if n < 2**15 else "i")  # 16-bit gaps where they fit
    if k == 1:
        out.append(n)
        return out
    g = [0] * (k + 1)  # g[1..k]; g[0] = 0 lies below every gap
    before_sum = [0] * k  # g_1 + ... + g_{t-1}, for the free positions t < k
    before_per = [1] * k  # period of g_1..g_{t-1}
    t = 1
    while t:
        v = g[t] + 1
        limit = n // k if t == 1 else n - before_sum[t] - (k - t) * g[1]
        if v > limit:
            t -= 1
            continue
        g[t] = v
        p = before_per[t] if v == g[t - before_per[t]] else t
        s = before_sum[t] + v
        if t + 1 < k:
            t += 1
            before_sum[t], before_per[t] = s, p
            g[t] = g[t - p] - 1  # the first value tried at t is g[t-p]
            continue
        last = n - s
        ref = g[k - p]
        if last > ref or (last == ref and k % p == 0):
            out.extend(g[1:k])
            out.append(last)
    return out


def brute_force_search(row, n, k, tie_tol, chunk=4096):
    """Minimize s(S) over k-subsets of Z_n, one subset per rotation class.

    Representatives are scored in lexicographic order with the same sum, in
    the same order, as a scan of all subsets would use; a subset replaces the
    incumbent only when it is better by more than tie_tol. A later rotation
    of a class is a plain shift, whose sum is bit-identical, or a wrapped
    one, which differs only by rounding, so neither could replace it: the
    result equals that of the full lexicographic scan.
    """
    if k == 0:
        return 0.0, np.zeros(0, dtype=np.int64)
    buf = necklace_gaps(n, k)
    gaps = np.frombuffer(buf, dtype=buf.typecode).reshape(-1, k)
    best = np.inf
    best_idx = np.arange(k)
    for lo in range(0, gaps.shape[0], chunk):
        idx = np.zeros((min(chunk, gaps.shape[0] - lo), k), dtype=np.int64)
        np.cumsum(gaps[lo:lo + chunk, :-1], axis=1, out=idx[:, 1:])
        s = np.zeros(idx.shape[0])
        for a in range(k):
            for b in range(k):
                s += row[(idx[:, b] - idx[:, a]) % n]
        for pos in np.nonzero(s < best - tie_tol)[0]:
            if s[pos] < best - tie_tol:
                best = float(s[pos])
                best_idx = idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)
