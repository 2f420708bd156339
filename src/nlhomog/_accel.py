"""Hot numeric kernels: the circle sum behind both energies, and subset search.

Both energy sums reduce to one primitive on the unit circle. For phases
``theta_b = x_b/eps mod 1``, weights ``c_b`` and a 1-periodic piecewise
quadratic ``g`` (segment s starts at ``beta_s``:
``g(u) = q0_s + q1_s (u - beta_s) + q2_s (u - beta_s)^2``), ``circle_field``
returns

    F(theta_a) = sum_b c_b g((theta_a - theta_b) mod 1)

at every phase in O(P log P + m U log U) for P phases, U of them distinct,
and m segments. F depends on a phase only through its value, so
``np.unique`` merges the entries of each distinct phase (``np.bincount``
sums their weights) and the sums run over the U distinct phases and their
copies ``theta - 1``: each phase has one copy in ``(theta - 1, theta]``, the
copies whose difference falls in segment s fill the window
``(theta - beta_{s+1}, theta - beta_s]``, and prefix sums of ``c``,
``c*phi`` and ``c*phi^2`` over the 2U copies give each window's sum in O(1).
The window ends at the weight's interior breakpoints take one
``searchsorted`` each; those at ``beta_0 = 0`` and 1 are known without a
search, since every phase lies on the 2^-52 grid. Memory is O(P) for the
phases and each output row plus O(m U). The 2 000 002 endpoints of the recovery
profile at 1/eps = 1e6 fall on U = 59 (rounding splits its 3 exact phases).
Windows are closed on the right, so a difference that lands exactly on
``beta_s`` belongs to segment s, matching the left-closed segments of the
weight. The prefix sums of ``c*phi`` and ``c*phi^2`` are accumulated in
``np.longdouble``: in double precision their rounding error grows with the
number of copies and reached ~1e-12 relative in the energy at P = 6e5 with
every phase distinct; with the 64-bit mantissa of x86-64 long doubles the
energy stays within a few ulps up to P = 2e6 (see ``energy``), and where
numpy's long double is plain double it loses that margin but not its
correctness.

- ``pair_energy`` (exact): with ``D^l`` the signed endpoint measure of level l
  (+1 at right ends, -1 at left ends of its intervals) and ``S_l`` its total
  length, ``E = abar sum_lm w_lm S_l S_m - eps^2 sum_lm w_lm D^l . F^m`` with
  ``g = B_per``, the periodic part of the weight's second antiderivative.
  ``F`` and the products ``D^l . F^m`` do not depend on the potential, which
  enters only through the level weights ``w``: one call takes a stack of
  weight matrices and serves them all with one circle sum.
- ``quadrature_energy`` (oracle): the midpoint sum with ``g = a`` itself and
  ``c`` the cell lengths of each level; it never reads the ``B_per`` table.

The L^2 level-pair terms are added with ``math.fsum``, so the result does not
depend on the order of the levels, nor on the other matrices of a stack.

``brute_force_search`` scores one k-subset per rotation class of the cell
grid, streamed in blocks by ``necklace_gaps`` in lexicographic order. The
generator walks the prenecklace tree depth first, on one stack of blocks of
prefixes, and builds only prefixes that a bound on the later gaps leaves
able to finish a necklace, so its memory is O(``SEARCH_CHUNK`` * k *
min(k, ``STEP_DEPTH``)) for any number of classes. The representatives
depend only on (n, k), never on the weight, so the search keeps each
(n, k)'s cell positions in a memo whose budget, ``MEMO_POSITIONS``, counts
the positions held over all keys: an enumeration larger than the budget is
never kept, and one that would push the memo past it first empties the
memo. A later search on a kept grid only scores; the memo holds nothing
that depends on the weight and changes no result. Every kernel here is
plain numpy and Python; numba is used nowhere. ``HAVE_NUMBA`` (numba
importable) and ``USE_NUMBA`` (always False) select no code path and read no
environment variable: they are kept only because benchmark reports record
them.
"""

from __future__ import annotations

import importlib.util
import math
import threading

import numpy as np

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
USE_NUMBA = False


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
    Needs ``kbp[0] == 0`` (as ``StepFunction`` requires) and ``theta`` from
    ``phases``: then ``tu - 1`` is exact and the outer cuts need no search.
    """
    # F depends on a phase only through its value: one weight per distinct phase
    tu, inv = np.unique(theta, return_inverse=True)
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

def pair_energy(endpoints, lengths, level_idx, wl, kbp, q0, q1, q2, abar, eps):
    """Exact rectangle sums, one for each finite level weight matrix of the
    stack ``wl`` (shape (K, L, L)); ``level_idx`` maps each interval to a
    row/column of them. Returns the K energies."""
    L = wl.shape[1]
    P = lengths.shape[0]
    D = np.zeros((L, P + 1))
    D[level_idx, np.arange(P)] = -1.0
    D[level_idx, np.arange(1, P + 1)] += 1.0
    S = np.bincount(level_idx, weights=lengths, minlength=L)
    F = circle_field(phases(endpoints, eps), D, kbp, q0, q1, q2)
    return [
        math.fsum([abar * w[l, m] * S[l] * S[m] for l in range(L) for m in range(L)] + terms)
        for w, terms in zip(wl, _level_pair_terms(wl, D, F, -eps * eps))
    ]


# ---------------------------------------------------------------------------
# midpoint tensor quadrature: sum_cd a((x_c - x_d)/eps) w[iu_c, iu_d] l_c l_d
# ---------------------------------------------------------------------------

def quadrature_energy(centers, lengths, iu, w, kbp, kvals, eps):
    L = w.shape[0]
    c = np.zeros((L, lengths.shape[0]))
    c[iu, np.arange(lengths.shape[0])] = lengths
    F = circle_field(phases(centers, eps), c, kbp, kvals)
    return math.fsum(_level_pair_terms(w[None], c, F, 1.0)[0])


# ---------------------------------------------------------------------------
# exhaustive subset search over the circulant quadratic form
#
# s(S) = sum_{i,j in S} row[(j-i) mod n] is invariant under rotating S, so
# only one subset per rotation class is scored: the lexicographically
# smallest rotation, which contains cell 0. Listed in lexicographic order,
# these representatives are exactly the subsets at which a scan of all
# k-subsets in lexicographic order first meets each class.
# ---------------------------------------------------------------------------

SEARCH_CHUNK = 4096  # rows per block of necklace_gaps, children per expansion step
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

    Served from the memo when (n, k) is kept there. Otherwise the
    enumeration streams and is kept once it has run to its end, if it holds
    at most ``MEMO_POSITIONS`` positions; one that cannot fit (at least
    C(n, k) / n classes of k positions each) holds nothing while it streams.
    A kept enumeration that would push the memo past ``MEMO_POSITIONS``
    empties it first.
    """
    kept = _memo.get((n, k))
    if kept is not None:
        yield from kept
        return
    blocks = [] if math.comb(n, k) * k <= n * MEMO_POSITIONS else None
    size = 0
    for gaps in necklace_gaps(n, k):
        idx = np.zeros_like(gaps)
        np.cumsum(gaps[:, :-1], axis=1, out=idx[:, 1:])
        if blocks is not None:
            size += idx.size
            if size > MEMO_POSITIONS:
                blocks = None
            else:
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
    block at a time, as cell positions: from the memo when an earlier search
    kept this (n, k), else streamed, so that memory stays O(SEARCH_CHUNK * k
    * min(k, STEP_DEPTH)) however many classes there are, besides the memo
    and an enumeration collected for it, at most ``MEMO_POSITIONS``
    positions each. Each is scored with the same sum, in the same order, as
    a scan of all subsets would use (``row2[n - i_a + i_b]`` with
    ``row2 = row`` repeated twice is ``row[(i_b - i_a) mod n]``); a subset
    replaces the incumbent only when it is better by more than tie_tol. A
    later rotation of a class is a plain shift, whose sum is bit-identical,
    or a wrapped one, which differs only by rounding, so neither could
    replace it: the result equals that of the full lexicographic scan,
    whether or not the positions came from the memo.
    """
    if k == 0:
        return 0.0, np.zeros(0, dtype=np.int64)
    row2 = np.concatenate([row, row])
    best = np.inf
    best_idx = np.arange(k)
    for idx in _positions(n, k):
        s = np.zeros(idx.shape[0])
        for a in range(k):
            base = n - idx[:, a].astype(np.intp)
            for b in range(k):
                s += row2[base + idx[:, b]]
        for pos in np.nonzero(s < best - tie_tol)[0]:
            if s[pos] < best - tie_tol:
                best = float(s[pos])
                best_idx = idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)
