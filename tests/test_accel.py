import itertools
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from nlhomog import (
    PeriodicStepKernel,
    StepFunction,
    TripleWellPotential,
    _accel,
    make_lambda_kernel,
    oscillating_profile,
)
from nlhomog.cell import build_cell_matrix, solve_brute_force
from nlhomog.energy import _level_structure, evaluate, evaluate_quadrature, rect_integral


def _random_kernel(rng):
    nseg = int(rng.integers(1, 6))
    inner = np.sort(rng.uniform(0.02, 0.98, nseg - 1))
    inner = inner[np.concatenate([[True], np.diff(inner) > 1e-3])] if inner.size else inner
    bp = np.concatenate([[0.0], inner])
    return PeriodicStepKernel(bp, rng.uniform(0.5, 3.0, bp.size))


def _random_inv_eps(rng):
    """Whole or non-whole 1/eps in [1, 2000]."""
    if rng.random() < 0.5:
        return float(rng.integers(1, 2001))
    return float(rng.uniform(1.0, 2000.0))


def _rect_sum(u, p, k, eps):
    """O(P^2) oracle: exact rectangle integral of every interval pair."""
    (wl,), level_idx = _level_structure(u, [p], 1e-12)
    ends = u.endpoints
    terms = []
    for i in range(u.values.size):
        for j in range(u.values.size):
            w = wl[level_idx[i], level_idx[j]]
            if w != 0.0:
                terms.append(w * rect_integral(k, eps, ends[i], ends[i + 1], ends[j], ends[j + 1]))
    return math.fsum(terms)


def _pair_args(u, pots, k, eps):
    wl, level_idx = _level_structure(u, pots, 1e-12)
    t = k.table
    return (u.endpoints, u.lengths, level_idx, wl, k.breakpoints, t.q0, t.q1, t.q2, t.mean, eps)


class TestPairEnergyOracle:
    def test_matches_rectangle_sum(self):
        rng = np.random.default_rng(20261017)
        levels = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 0.25])
        for case in range(40):
            k = _random_kernel(rng)
            P = int(rng.integers(1, 201)) if case % 8 == 0 else int(rng.integers(1, 41))
            L = int(rng.integers(1, 7))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, P - 1))])
            bp = bp[np.concatenate([[True], np.diff(bp) > 0])]
            z = float(rng.uniform(-1.0, 1.0))
            u = StepFunction(bp, z + rng.choice(levels[:L], bp.size))
            pots = [TripleWellPotential(cap=float(c)) for c in rng.uniform(1.0, 20.0, 2)]
            eps = 1.0 / _random_inv_eps(rng)
            # one call scores the stack of both caps' level weight matrices
            for fast, p in zip(_accel.pair_energy(*_pair_args(u, pots, k, eps)), pots):
                oracle = _rect_sum(u, p, k, eps)
                assert abs(fast - oracle) <= 1e-13 * abs(oracle), (case, fast, oracle)


def _direct_quadrature(centers, lengths, iu, w, k, eps):
    """O(C^2) oracle: the midpoint sum with the weight evaluated pair by pair."""
    a = k.eval((centers[:, None] - centers[None, :]) / eps)
    return float(lengths @ ((a * w[iu[:, None], iu[None, :]]) @ lengths))


class TestQuadratureOracle:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            k = _random_kernel(rng)
            C = int(rng.integers(2, 601))
            centers = np.sort(rng.uniform(0.0, 1.0, C))
            lengths = rng.uniform(0.5, 1.5, C)
            lengths /= lengths.sum()
            L = int(rng.integers(1, 4))
            iu = rng.integers(0, L, C)
            w = rng.uniform(0.0, 5.0, (L, L))
            w = 0.5 * (w + w.T)
            eps = 1.0 / _random_inv_eps(rng)
            fast = _accel.quadrature_energy(centers, lengths, iu, w, k.breakpoints, k.values, eps)
            direct = _direct_quadrature(centers, lengths, iu, w, k, eps)
            assert abs(fast - direct) <= 1e-12 * abs(direct), (case, fast, direct)

    def test_phases_one_ulp_apart_are_each_counted_once(self):
        # 0.1 and the next float share the same float value of phase - 1;
        # the rounded phases keep every copy in exactly one window (the
        # weight has no jump at 0, so the pair's value is not a tie)
        k = PeriodicStepKernel([0.0, 0.3, 0.7], [2.0, 3.0, 2.0])
        centers = np.array([0.1, np.nextafter(0.1, 1.0)])
        lengths = np.array([0.5, 0.5])
        iu = np.zeros(2, dtype=np.int64)
        w = np.ones((1, 1))
        fast = _accel.quadrature_energy(centers, lengths, iu, w, k.breakpoints, k.values, 1.0)
        assert fast == pytest.approx(_direct_quadrature(centers, lengths, iu, w, k, 1.0), abs=1e-15)

    def test_jump_ties_stay_within_bound(self):
        # On the n = 480 grid every center difference is a multiple of 1/480
        # and eps/4 = 6/480, so many differences land exactly on the jumps of
        # the lam = 1/2 weight (at 1/4 and 3/4). Rounding breaks those ties
        # differently in the two sums; each must stay inside the bound.
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        eps, n = 0.05, 480
        u = StepFunction([0.0, 0.3, 0.55], [0.0, 1.0, 0.0])
        p = TripleWellPotential()
        quad = evaluate_quadrature(u, p, k, eps, n=n)
        exact = evaluate(u, p, k, eps).value
        edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1), u.breakpoints]))
        lengths = np.diff(edges)
        centers = edges[:-1] + 0.5 * lengths
        t = (centers[:, None] - centers[None, :]) / eps
        frac = t - np.floor(t)
        assert np.count_nonzero(np.isclose(frac, 0.25, rtol=0.0, atol=1e-9)) > 0
        (wl,), level_idx = _level_structure(u, [p], 1e-12)
        iu = level_idx[np.searchsorted(u.breakpoints, centers, side="right") - 1]
        direct = _direct_quadrature(centers, lengths, iu, wl, k, eps)
        assert abs(quad.value - exact) <= quad.bound
        assert abs(direct - exact) <= quad.bound


def _distinct_phases(x, eps):
    return np.unique(_accel.phases(x, eps)).size


def _random_arcs(rng, count):
    """count disjoint arcs of the unit cell, ends on the 1/64 grid."""
    ends = np.sort(rng.choice(np.arange(64), 2 * count, replace=False)) / 64.0
    return [(float(a), float(b)) for a, b in ends.reshape(-1, 2)]


def _kernel_without_jump_at_zero(rng):
    """A random weight whose last segment has the value of its first, so a
    difference that is a whole number of periods is not a tie."""
    k = _random_kernel(rng)
    values = k.values.copy()
    values[-1] = values[0]
    return PeriodicStepKernel(k.breakpoints, values)


class TestRepeatedPhases:
    """Periodic profiles and grids commensurate with eps put many entries at
    one phase; circle_field evaluates each distinct phase once."""

    def test_periodic_profile_matches_rectangle_sum(self):
        rng = np.random.default_rng(20261019)
        p = TripleWellPotential()
        for count in (1, 2, 3):
            top = 120 // count  # at most ~2 * count * top + 2 = 242 intervals
            for kind in ("whole", "half", "jitter"):
                for kern in (make_lambda_kernel(*rng.uniform(0.5, 3.0, 2), rng.uniform(0.1, 0.9)),
                             _random_kernel(rng)):
                    m = int(rng.integers(2, top))
                    inv_eps = {"whole": m, "half": m + 0.5, "jitter": m + rng.uniform(0.1, 0.9)}[kind]
                    eps = 1.0 / inv_eps
                    u = oscillating_profile(float(rng.uniform(-1.0, 1.0)), _random_arcs(rng, count), eps)
                    assert u.values.size <= 250
                    case = (count, kind, inv_eps)
                    assert _distinct_phases(u.endpoints, eps) < u.endpoints.size, case
                    (fast,) = _accel.pair_energy(*_pair_args(u, [p], kern, eps))
                    oracle = _rect_sum(u, p, kern, eps)
                    assert abs(fast - oracle) <= 1e-13 * abs(oracle), (case, fast, oracle)

    @pytest.mark.parametrize("n, eps", [(512, 1.0 / 16.0), (480, 0.05), (600, 1.0 / 24.0),
                                        (300, 7.0 / 300.0)])
    def test_commensurate_grid_matches_direct_sum(self, n, eps):
        rng = np.random.default_rng(n)
        lengths = np.full(n, 1.0 / n)
        centers = (np.arange(n) + 0.5) / n
        assert _distinct_phases(centers, eps) < n
        for case in range(5):
            k = _kernel_without_jump_at_zero(rng)
            L = int(rng.integers(1, 4))
            iu = rng.integers(0, L, n)
            w = rng.uniform(0.0, 5.0, (L, L))
            w = 0.5 * (w + w.T)
            fast = _accel.quadrature_energy(centers, lengths, iu, w, k.breakpoints, k.values, eps)
            direct = _direct_quadrature(centers, lengths, iu, w, k, eps)
            assert abs(fast - direct) <= 1e-12 * abs(direct), (case, fast, direct)

    def test_equal_phases_get_equal_entries(self):
        rng = np.random.default_rng(5)
        k = make_lambda_kernel(1.0, 2.0, 0.5)
        t = k.table
        theta = _accel.phases(rng.choice(rng.uniform(0.0, 3.0, 7), 300), 1.0)
        theta[:5] = 0.0
        assert np.unique(theta).size == 8
        weights = rng.normal(size=(2, theta.size))
        # phase 0.6 with weights a, -a, b, -b, which merge to exactly 0
        a, b = rng.normal(size=(2, 2))
        cancel = (np.append(theta, [0.6] * 4),
                  np.concatenate([weights, np.stack([a, -a, b, -b], axis=1)], axis=1))
        assert not np.any(np.bincount(np.zeros(4, dtype=np.int64), weights=cancel[1][0, -4:]))
        # one phase held by more than 2^16 entries
        many = 70_000
        crowded = (np.append(theta, np.full(many, theta[7])),
                   np.concatenate([weights, rng.normal(size=(2, many))], axis=1))
        for theta, weights in ((theta, weights), cancel, crowded):
            quad = _accel.circle_field(theta, weights, k.breakpoints, t.q0, t.q1, t.q2)
            const = _accel.circle_field(theta, weights, k.breakpoints, k.values)
            for v in np.unique(theta):
                for F in (quad, const):
                    same = F[:, theta == v]
                    assert np.array_equal(same, np.repeat(same[:, :1], same.shape[1], axis=1)), v
                # each field against its plain sum over all entries
                diff = np.mod(v - theta, 1.0)
                direct = weights @ k.eval(diff)
                np.testing.assert_allclose(const[:, theta == v][:, 0], direct, rtol=1e-12, atol=1e-12)
                direct = weights @ k.periodic_part(diff)
                np.testing.assert_allclose(quad[:, theta == v][:, 0], direct, rtol=1e-12, atol=1e-12)


def _circle_field_searching_every_cut(theta, weights, kbp, q0, q1=None, q2=None):
    """circle_field as it was when every window end, the outer two included,
    came from its own searchsorted."""
    tu, inv = np.unique(theta, return_inverse=True)
    phi = np.concatenate([tu - 1.0, tu])
    edges = np.append(kbp, 1.0)
    cut = [np.searchsorted(phi, tu - e, side="right") for e in edges]
    quadratic = q1 is not None and (np.any(q1) or np.any(q2))
    out = np.empty((weights.shape[0], theta.size))
    for k, w in enumerate(weights):
        c = np.tile(np.bincount(inv, weights=w, minlength=tu.size), 2)
        pre0 = _accel._cumsum0(c)
        if quadratic:
            c *= phi
            pre1 = _accel._cumsum0(c, np.longdouble)
            c *= phi
            pre2 = _accel._cumsum0(c, np.longdouble)
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
            F += q0[s] * C0 + q1[s] * (d * C0 - C1) + q2[s] * (d * (d * C0 - 2.0 * C1) + C2)
        out[k] = F[inv]
    return out


class TestOuterCuts:
    """The window ends at 0 and 1 are slices, not searches: the field is
    bit-identical to the one that searched every cut."""

    def test_matches_every_cut_searched_bit_for_bit(self):
        rng = np.random.default_rng(20261020)
        kinds = ("distinct", "one phase", "crowded", "grid")
        seen = set()
        for case in range(600):
            kind = kinds[case % 4]
            P = int(rng.integers(1, 40))
            nseg = int(rng.integers(1, 7))
            if kind == "grid":
                # differences land exactly on breakpoints: ties at every cut
                x, eps = rng.integers(0, 64, P) / 64.0, 1.0
                inner = rng.choice(np.arange(1, 64), nseg - 1, replace=False) / 64.0
            else:
                x, eps = rng.uniform(0.0, 5.0, P), float(rng.uniform(0.01, 1.0))
                inner = rng.uniform(0.0, 1.0, nseg - 1)
                if kind == "one phase":
                    x[:] = x[0]
                elif kind == "crowded":
                    x[rng.random(P) < 0.6] = x[0]
            if rng.random() < 0.3:
                x[int(rng.integers(0, P))] = 0.0
            kbp = np.unique(np.concatenate([[0.0], inner]))  # [0] alone: both cuts outer
            theta = _accel.phases(x, eps)
            rows = int(rng.integers(1, 7))
            weights = rng.normal(size=(rows, P)) if case % 2 else rng.choice([-1.0, 1.0], (rows, P))
            q0, q1, q2 = rng.normal(size=(3, kbp.size))
            for g in ((q0,), (q0, q1, q2)):
                fast = _accel.circle_field(theta, weights, kbp, *g)
                slow = _circle_field_searching_every_cut(theta, weights, kbp, *g)
                assert np.array_equal(fast, slow), (case, kind, P, kbp.size, len(g))
            reached = {"U = 1": np.unique(theta).size == 1, "phase 0": 0.0 in theta,
                       "kbp = [0]": kbp.size == 1, "6 segments": kbp.size == 6, "6 rows": rows == 6}
            seen.update(name for name, hit in reached.items() if hit)
        assert seen == set(reached)


def _lexicographic_scan(row, n, k, tie_tol, chunk=4096):
    """Reference search: every k-subset in lexicographic order, scored by the
    same sum in the same order, replacing the incumbent only when better by
    more than tie_tol."""
    best = np.inf
    best_idx = np.arange(k)
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        s = np.zeros(len(block))
        for a in range(k):
            for b in range(k):
                s += row[(idx[:, b] - idx[:, a]) % n]
        for pos in np.nonzero(s < best - tie_tol)[0]:
            if s[pos] < best - tie_tol:
                best = float(s[pos])
                best_idx = idx[pos]
    return best, np.asarray(best_idx, dtype=np.int64)


def _fkm_reference(n, k):
    """The FKM recursion written out one node at a time: necklace gap
    sequences of the k-subsets of Z_n in lexicographic order, as a flat array."""
    out = array("h" if n < 2**15 else "i")
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


def _necklace_blocks(n, k):
    """The blocks necklace_gaps streams, checked for shape and size: full
    blocks of SEARCH_CHUNK rows, the last one shorter."""
    blocks = list(_accel.necklace_gaps(n, k))
    for i, b in enumerate(blocks):
        assert b.ndim == 2 and b.shape[1] == k
        assert 1 <= b.shape[0] <= _accel.SEARCH_CHUNK, (n, k, b.shape)
        assert b.shape[0] == _accel.SEARCH_CHUNK or i == len(blocks) - 1, (n, k, i)
    return blocks


def _necklace_array(n, k):
    return np.concatenate(_necklace_blocks(n, k))


class TestSubsetSearch:
    def test_blocks_match_fkm_reference(self):
        for n in range(1, 23):
            for k in range(1, n + 1):
                ref = _fkm_reference(n, k)
                got = _necklace_array(n, k)
                assert got.dtype == np.dtype(ref.typecode), (n, k)
                assert np.array_equal(got.ravel(), np.frombuffer(ref, dtype=ref.typecode)), (n, k)

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_small_chunks_match_fkm_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(_accel, "SEARCH_CHUNK", chunk)
        # n = 200, k = 3: the root alone has 66 children, well above the chunk;
        # k = 20 runs past STEP_DEPTH, where steps build fewer children;
        # the last four are deep trees where the run bound prunes prefixes
        cases = [(n, k) for n in range(1, 15) for k in range(1, n + 1)]
        for n, k in cases + [(200, 3), (37, 5), (24, 20), (30, 26), (40, 37), (26, 20), (60, 57)]:
            got = np.concatenate(_necklace_blocks(n, k)).ravel()
            assert np.array_equal(got, np.array(_fkm_reference(n, k))), (chunk, n, k)

    def test_dead_prefixes_are_not_walked(self):
        # k = n - 2 has 150 classes, but the prenecklace tree bounded only by
        # g_1 builds ~2e6 prefixes, nearly all of which cannot finish a
        # necklace; holding them takes ~30 MB
        tracemalloc.start()
        try:
            rows = sum(b.shape[0] for b in _accel.necklace_gaps(300, 298))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 150
        assert peak < 4 * 2**20

    def test_representatives_are_smallest_rotations_in_order(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                gaps = _necklace_array(n, k)
                assert np.all(gaps.sum(axis=1) == n)
                starts = np.concatenate([np.zeros((gaps.shape[0], 1), int),
                                         np.cumsum(gaps[:, :-1], axis=1)], axis=1)
                expected = sorted({
                    min(tuple(sorted((x - r) % n for x in S)) for r in range(n))
                    for S in itertools.combinations(range(n), k)
                })
                assert [tuple(r) for r in starts] == expected, (n, k)

    def test_large_grid_single_cell(self):
        # n beyond the 16-bit gap range (C(n, 1) = n is within the cap)
        n = 40_000
        row = np.cos(np.arange(n))
        energy, idx = _accel.brute_force_search(row, n, 1, 1e-12)
        assert energy == row[0] and idx.tolist() == [0]

    def test_solve_brute_force_matches_lexicographic_scan_bit_for_bit(self):
        # tie kernels (alpha, beta in {1, 2}, lam in {1/4, 1/2}: many exactly
        # equal sums) at n = 16, then random multi-segment kernels at n <= 16
        kernels = [(make_lambda_kernel(a, b, lam), 16)
                   for a in (1.0, 2.0) for b in (1.0, 2.0) for lam in (0.25, 0.5)]
        rng = np.random.default_rng(20261018)
        for case in range(292):
            n = int(rng.integers(14, 17)) if case % 30 == 0 else int(rng.integers(2, 13))
            kernels.append((_random_kernel(rng), n))
        for kern, n in kernels:
            K = build_cell_matrix(kern, n)
            for k in range(n + 1):
                res = solve_brute_force(K, k)
                tie_tol = 1e-12 * max(1.0, k * k * float(np.max(np.abs(K.first_row))))
                raw, idx = (_lexicographic_scan(K.first_row, n, k, tie_tol) if k
                            else (0.0, np.zeros(0, dtype=np.int64)))
                J = raw / (n * n)
                t = k / n
                assert res.energy == float(2.0 * J - 2.0 * K.abar * t + K.abar), (n, k)
                assert res.extras["indices"] == np.sort(idx).tolist(), (n, k)
                assert res.iterations == math.comb(n, k)
