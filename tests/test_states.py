import math

import numpy as np
import pytest

from nlhomog import (
    PeriodicStepFunction,
    PeriodicStepKernel,
    ResourceLimitError,
    StepFunction,
    TripleWellPotential,
    integrate,
    optimal_profile,
    oscillating_profile,
)
from nlhomog import util
from nlhomog.states import check_profile_size


class TestPotential:
    def test_well_values(self):
        p = TripleWellPotential()
        assert p.value(1.0, 0.0) == 0.0
        assert p.value(-1.0, 0.0) == 0.0
        assert p.value(0.0, 0.0) == 1.0
        assert p.value(0.5, 0.0) == math.inf

    def test_capped_values(self):
        p = TripleWellPotential(cap=10.0)
        assert p.value(0.5, 0.0) == 10.0
        assert p.value(1.0, 0.0) == 0.0
        assert p.value(0.0, 0.0) == 1.0

    def test_snapping(self):
        p = TripleWellPotential()
        assert p.value(1.0 + 1e-13, 1e-12) == 0.0
        assert p.value(1e-13, 1e-12) == 1.0
        assert p.value(1e-10, 1e-12) == math.inf

    def test_tie_goes_to_nearest_then_first_well(self):
        # 0.5 is equidistant from 0 and 1; the first of (-1, 0, 1) wins
        p = TripleWellPotential()
        assert p.value(0.5, 0.5) == 1.0

    @pytest.mark.parametrize("cap", [None, 1.0, 8.0])
    def test_array_matches_scalar_calls(self, cap):
        p = TripleWellPotential(cap=cap)
        wells = np.array([-1.0, 0.0, 1.0])
        zs = np.concatenate([
            [-1.5, -0.5, 0.5, 1.5],  # exact midpoints: ties at tol 0.5
            wells,
            wells + 4e-13,  # within 1e-12 of a well
            wells - 3e-12,  # outside 1e-12
            [0.25, -0.75, 1e-300, -2.0, 2.5, 7.0, math.inf, -math.inf],
        ])
        for tol in (0.0, 1e-12, 0.25, 0.5):
            arr = p.value(zs, tol)
            assert np.array_equal(arr, [p.value(float(z), tol) for z in zs])
            assert np.array_equal(p.value(zs.reshape(3, -1), tol), arr.reshape(3, -1))
        assert isinstance(p.value(0.3), float)
        off = math.inf if cap is None else cap
        # ties go to the first of (-1, 0, 1); |z - w| == tol still snaps
        assert p.value(np.array([-1.5, -0.5, 0.5, 1.5]), 0.5).tolist() == [0.0, 0.0, 1.0, 0.0]
        assert p.value(np.array([-0.5, 0.5, 1.5]), 0.25).tolist() == [off, off, off]

    def test_capped_below_infinite_and_monotone(self):
        zs = np.linspace(-2.5, 2.5, 41)
        caps = [1.0, 2.0, 8.0, 64.0]
        inf_pot = TripleWellPotential()
        for z in zs:
            vals = [TripleWellPotential(cap=c).value(z, 0.0) for c in caps]
            assert all(v <= inf_pot.value(z, 0.0) for v in vals)
            assert vals == sorted(vals)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            TripleWellPotential(cap=0.5)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_cap_is_refused(self, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            TripleWellPotential(cap=cap)


    @pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
    def test_bad_tol_is_refused(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be finite and >= 0$"):
            TripleWellPotential().value(1.0, tol)


class TestStepFunction:
    def test_integrate_constant(self):
        assert integrate(StepFunction.constant(0.7)) == pytest.approx(0.7, abs=1e-15)

    def test_integrate_indicator(self):
        u = StepFunction([0.0, 0.3], [1.0, 0.0])
        assert integrate(u) == pytest.approx(0.3, abs=1e-15)

    def test_integrate_two_step(self):
        u = StepFunction([0.0, 0.5], [0.2, 0.8])
        assert integrate(u) == pytest.approx(0.5, abs=1e-15)

    def test_eval(self):
        u = StepFunction([0.0, 0.5], [0.2, 0.8])
        assert u.eval(0.25) == 0.2
        assert u.eval(0.5) == 0.8
        assert u.eval(0.99) == 0.8

    def test_segment_index_matches_clipped_searchsorted(self):
        # oracle: the last breakpoint <= x, clipped to the first segment
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            bp = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1.0, m - 1)]))
            u = StepFunction(bp, rng.uniform(-1.0, 1.0, bp.size))
            x = np.concatenate([
                bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                [-0.5, -1e-300, 1.0, np.nextafter(1.0, 2.0), 2.5], rng.uniform(0.0, 1.0, 20),
            ])
            want = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, None)
            assert np.array_equal(u.segment_index(x), want)
            for v in x:
                assert u.segment_index(v) == want[x == v][0]

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction([0.1], [1.0])
        with pytest.raises(ValueError):
            StepFunction([0.0, 0.5, 0.4], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("cls", [StepFunction, PeriodicStepFunction, PeriodicStepKernel])
    @pytest.mark.parametrize(
        "bp, vals",
        [([0.0, math.nan], [1.0, 2.0]), ([0.0, 0.5, math.nan], [1.0, 2.0, 3.0]),
         ([0.0, 0.5], [1.0, math.inf]), ([0.0, 0.5], [math.nan, 1.0])],
    )
    def test_non_finite_breakpoint_or_value_is_refused(self, cls, bp, vals):
        with pytest.raises(ValueError, match="must be finite"):
            cls(bp, vals)

    def test_json_round_trip(self):
        u = StepFunction([0.0, 0.25, 0.7], [1.0, -0.5, 2.0])
        u2 = StepFunction.from_json(u.to_json())
        assert np.array_equal(u.breakpoints, u2.breakpoints)
        assert np.array_equal(u.values, u2.values)


def _reference_profile(z, arcs, eps):
    """The per-period loop that built oscillating profiles before they were
    vectorised; oscillating_profile must match it bit for bit."""
    n_periods = math.ceil(1.0 / eps - 1e-12)
    cuts = [0.0]
    flags = []  # indicator value on [cuts[i], cuts[i+1])
    for j in range(n_periods):
        pos = j * eps
        for a, b in arcs:
            xa, xb = (j + a) * eps, (j + b) * eps
            if xa >= 1.0:
                break
            if xa > pos and pos < 1.0:
                flags.append(0.0)
                cuts.append(min(xa, 1.0))
                pos = min(xa, 1.0)
            if pos >= 1.0:
                break
            flags.append(1.0)
            cuts.append(min(xb, 1.0))
            pos = min(xb, 1.0)
        period_end = min((j + 1) * eps, 1.0)
        if pos < period_end:
            flags.append(0.0)
            cuts.append(period_end)
    bp, vals = [], []
    for i, f in enumerate(flags):
        if cuts[i + 1] <= cuts[i]:
            continue
        if vals and vals[-1] == f:
            continue
        bp.append(cuts[i])
        vals.append(f)
    return np.array(bp), z + np.array(vals)


def _broadcast_profile(z, arcs, eps):
    """oscillating_profile as it was built from a broadcast sum of periods
    and offsets, a tiled flag array and boolean gathers."""
    arcs, periods = check_profile_size(arcs, eps)
    offsets = np.append(np.asarray(arcs, dtype=float).reshape(-1), 1.0)
    flags = np.append(np.tile([0.0, 1.0], len(arcs)), 0.0)
    j = np.arange(periods, dtype=float)
    cuts = np.minimum((j[:, None] + offsets[None, :]) * eps, 1.0)
    cuts = np.concatenate([[0.0], cuts.reshape(-1)])
    flags = np.tile(flags, periods)
    keep = cuts[1:] > cuts[:-1]
    starts, flags = cuts[:-1][keep], flags[keep]
    first = np.concatenate([[True], flags[1:] != flags[:-1]])
    return starts[first], z + flags[first]


def _random_arcs(rng):
    """Sorted disjoint arcs; some touch, start at 0 or end at 1."""
    cuts = np.unique(np.round(rng.uniform(0.0, 1.0, 2 * int(rng.integers(0, 5))), 2))
    if rng.random() < 0.3:
        cuts = np.unique(np.concatenate([[0.0], cuts]))
    if rng.random() < 0.3:
        cuts = np.unique(np.concatenate([cuts, [1.0]]))
    arcs = [(float(a), float(b)) for a, b in zip(cuts[:-1:2], cuts[1::2])]
    if len(arcs) > 1 and rng.random() < 0.3:
        a, b = arcs[0]
        arcs[0:1] = [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
    return arcs


class TestOscillatingProfile:
    def test_matches_reference_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for case in range(300):
            arcs = _random_arcs(rng)
            if case % 2:
                inv_eps = float(rng.integers(1, 400))
            else:
                inv_eps = float(rng.uniform(1.0, 400.0))
            eps = 1.0 / inv_eps
            z = float(rng.uniform(-1.0, 1.0))
            u = oscillating_profile(z, arcs, eps)
            bp, vals = _reference_profile(z, arcs, eps)
            assert np.array_equal(u.breakpoints, bp), (arcs, eps)
            assert np.array_equal(u.values, vals), (arcs, eps)

    @pytest.mark.parametrize(
        "arcs",
        [[], [(0.0, 1.0)], optimal_profile(0.5), [(0.0, 0.1), (0.4, 0.6), (0.85, 1.0)], [(0.3, 0.7)]],
    )
    @pytest.mark.parametrize("inv_eps", [1.0, 7.3, 64.0, 1000.25, 4096.0, 4096.43])
    def test_matches_broadcast_construction_bit_for_bit(self, arcs, inv_eps):
        eps = 1.0 / inv_eps
        for z in (-0.5, -0.0, 0.3):
            u = oscillating_profile(z, arcs, eps)
            bp, vals = _broadcast_profile(z, arcs, eps)
            assert u.breakpoints.tobytes() == bp.tobytes()
            assert u.values.tobytes() == vals.tobytes()
            assert u.values.dtype == np.float64

    def test_quarter_eps_profile(self):
        u = oscillating_profile(-0.5, optimal_profile(0.5), 0.25)
        assert set(np.unique(u.values)) == {-0.5, 0.5}
        assert integrate(u) == pytest.approx(0.0, abs=1e-15)
        # 4 periods of (1, 0, 1) with wrap-around merging -> alternating 9 pieces
        assert len(u.values) == 9
        assert np.ptp(u.values) == 1.0

    def test_full_arc_is_constant_shift(self):
        u = oscillating_profile(0.0, [(0.0, 1.0)], 0.125)
        assert np.all(u.values == 1.0)

    def test_mass_is_z_plus_t(self):
        u = oscillating_profile(0.0, optimal_profile(0.5), 0.5)
        assert integrate(u) == pytest.approx(0.5, abs=1e-15)

    def test_mass_bookkeeping_various_eps(self):
        for m in (3, 8, 17, 64):
            u = oscillating_profile(-0.5, optimal_profile(0.5), 1.0 / m)
            assert integrate(u) == pytest.approx(0.0, abs=1e-12)

    def test_indicator_profiles_have_unit_oscillation(self):
        for t in (0.2, 0.5, 0.8):
            u = oscillating_profile(1.3, optimal_profile(t), 0.1)
            assert np.ptp(u.values) <= 1.0

    def test_breakpoint_cap(self):
        with pytest.raises(ResourceLimitError):
            oscillating_profile(0.0, optimal_profile(0.5), 1e-7)

    def test_default_cap_names_stage_and_size(self, monkeypatch):
        monkeypatch.setattr(util, "MAX_INTERVALS", 100)
        # the two arcs of optimal_profile(0.5) form one cyclic run: 2*50 + 2
        oscillating_profile(0.0, optimal_profile(0.5), 1.0 / 49.0)
        with pytest.raises(ResourceLimitError, match=r"oscillating_profile: ~102 breakpoints"):
            oscillating_profile(0.0, optimal_profile(0.5), 1.0 / 50.0)

    def test_size_check_is_the_profiles_own(self, monkeypatch):
        monkeypatch.setattr(util, "MAX_INTERVALS", 100)
        arcs, periods = check_profile_size([(0.0, 0.25), (0.75, 1.0)], 1.0 / 49.0)
        assert arcs == [(0.0, 0.25), (0.75, 1.0)] and periods == 49
        with pytest.raises(ResourceLimitError, match=r"^oscillating_profile: ~102 breakpoints"):
            check_profile_size(optimal_profile(0.5), 1.0 / 50.0)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\]$"):
            check_profile_size(optimal_profile(0.5), 0.0)

    def test_default_cap_admits_recovery_profile_at_1e6(self):
        # 2_000_001 intervals; the estimate is checked before anything is built
        n_periods = 10**6
        assert 2 * n_periods + 2 <= util.MAX_INTERVALS

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            oscillating_profile(0.0, optimal_profile(0.5), 0.0)

    def test_arc_validation(self):
        with pytest.raises(ValueError):
            oscillating_profile(0.0, [(0.5, 0.4)], 0.25)
        with pytest.raises(ValueError):
            oscillating_profile(0.0, [(0.0, 0.6), (0.5, 0.9)], 0.25)
