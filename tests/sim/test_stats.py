"""Unit + property tests for statistics and component attribution."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    COMPONENTS,
    LatencyBreakdown,
    RunStats,
    ThreadStats,
    geomean,
)


class TestLatencyBreakdown:
    def test_add(self):
        a = LatencyBreakdown(total=10, l2=3, bus=4)
        b = LatencyBreakdown(total=5, l3=2, mem=1, prel2=1)
        c = a + b
        assert (c.total, c.l2, c.bus, c.l3, c.mem, c.prel2) == (15, 3, 4, 2, 1, 1)

    def test_residual(self):
        bd = LatencyBreakdown(total=20, l2=5, bus=5)
        assert bd.residual() == 10

    def test_residual_never_negative(self):
        bd = LatencyBreakdown(total=3, l2=5, bus=5)
        assert bd.residual() == 0

    def test_scaled_down_preserves_mix(self):
        bd = LatencyBreakdown(total=100, l2=50, bus=50)
        s = bd.scaled_to(10)
        assert s.total == 10
        assert s.l2 == 5
        assert s.bus == 5

    def test_scaled_never_exceeds_original(self):
        bd = LatencyBreakdown(total=10, l2=10)
        s = bd.scaled_to(100)
        assert s.l2 <= 10

    def test_scaled_zero(self):
        assert LatencyBreakdown(total=10, l2=5).scaled_to(0).total == 0

    @given(
        total=st.integers(1, 10_000),
        l2=st.integers(0, 2_000),
        bus=st.integers(0, 2_000),
        target=st.integers(0, 20_000),
    )
    def test_scaled_components_bounded(self, total, l2, bus, target):
        bd = LatencyBreakdown(total=total, l2=l2, bus=bus)
        s = bd.scaled_to(target)
        assert s.l2 <= l2 + 1  # rounding slack
        assert s.bus <= bus + 1


class TestThreadStats:
    def test_charge_accumulates(self):
        t = ThreadStats()
        t.charge("L2", 5)
        t.charge("L2", 3)
        assert t.components["L2"] == 8

    def test_charge_unknown_component(self):
        with pytest.raises(KeyError):
            ThreadStats().charge("FOO", 1)

    def test_charge_negative(self):
        with pytest.raises(ValueError):
            ThreadStats().charge("L2", -1)

    def test_charge_breakdown_distributes(self):
        t = ThreadStats()
        bd = LatencyBreakdown(total=100, l2=40, bus=40, prel2=20)
        t.charge_breakdown(bd, 100)
        assert t.components["L2"] == pytest.approx(40)
        assert t.components["BUS"] == pytest.approx(40)
        assert t.components["PreL2"] == pytest.approx(20)

    def test_charge_breakdown_scales_exposure(self):
        t = ThreadStats()
        bd = LatencyBreakdown(total=100, l2=50, bus=50)
        t.charge_breakdown(bd, 10)
        assert t.components["L2"] == pytest.approx(5)

    def test_charge_breakdown_zero_noop(self):
        t = ThreadStats()
        t.charge_breakdown(LatencyBreakdown(total=10, l2=10), 0)
        assert t.component_sum() == 0

    def test_charge_breakdown_conserves_cycles_exactly(self):
        # Regression: independent per-component round() calls could each
        # round up, overshooting the exposure and leaking a negative
        # COMPUTE residual.  Awkward mixes must still sum to `exposed`.
        for exposed in (1, 3, 7, 13, 101):
            t = ThreadStats()
            bd = LatencyBreakdown(total=9, l2=3, bus=3, l3=1, mem=1, prel2=1)
            t.charge_breakdown(bd, exposed)
            assert t.component_sum() == pytest.approx(exposed)
            assert all(v >= 0 for v in t.components.values())

    def test_charge_breakdown_fractional_exposure_lands_in_compute(self):
        t = ThreadStats()
        t.charge_breakdown(LatencyBreakdown(total=10, l2=10), 2.75)
        assert t.component_sum() == pytest.approx(2.75)
        assert t.components["COMPUTE"] == pytest.approx(0.75)

    def test_scaled_to_never_overshoots(self):
        bd = LatencyBreakdown(total=9, l2=3, bus=3, l3=3)
        for cycles in range(1, 12):
            scaled = bd.scaled_to(cycles)
            named = scaled.l2 + scaled.bus + scaled.l3 + scaled.mem + scaled.prel2
            assert named <= cycles

    def test_comm_to_app_ratio(self):
        t = ThreadStats(app_instructions=100, comm_instructions=20)
        assert t.comm_to_app_ratio == pytest.approx(0.2)

    def test_comm_ratio_no_app(self):
        assert ThreadStats(comm_instructions=5).comm_to_app_ratio == 0.0

    def test_total_instructions(self):
        t = ThreadStats(app_instructions=10, comm_instructions=5)
        assert t.total_instructions == 15

    def test_normalized_components_sum_to_height(self):
        t = ThreadStats(cycles=200)
        t.charge("COMPUTE", 30)
        t.charge("BUS", 70)
        norm = t.normalized_components(baseline_cycles=100)
        assert sum(norm.values()) == pytest.approx(2.0)
        assert norm["BUS"] == pytest.approx(1.4)

    def test_normalized_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            ThreadStats(cycles=10).normalized_components(0)

    def test_all_components_present(self):
        t = ThreadStats()
        assert set(t.components) == set(COMPONENTS)


def _reference_shares(bd: LatencyBreakdown, cycles: int):
    """The original share rule: ``min``-capped, ``int(round())``-scaled."""
    if cycles >= bd.total:
        remaining = cycles
        out = []
        for value in (bd.l2, bd.bus, bd.l3, bd.mem, bd.prel2):
            value = min(remaining, value)
            remaining -= value
            out.append(value)
        return tuple(out)
    f = min(1.0, cycles / bd.total)
    remaining = cycles
    out = []
    for value in (bd.l2, bd.bus, bd.l3, bd.mem, bd.prel2):
        value = min(remaining, int(round(value * f)))
        remaining -= value
        out.append(value)
    return tuple(out)


_parts = st.integers(-3, 120)


class TestShareRule:
    """``_shares`` and ``charge_breakdown``'s inline copy ≡ the original."""

    @given(
        st.integers(1, 300), _parts, _parts, _parts, _parts, _parts,
        st.integers(1, 400), st.sampled_from((0.0, 0.25, 0.5, 0.75)),
    )
    def test_shares_and_charge_match_the_original(
        self, total, l2, bus, l3, mem, prel2, cycles, frac
    ):
        bd = LatencyBreakdown(total, l2, bus, l3, mem, prel2)
        want = _reference_shares(bd, cycles)
        assert bd._shares(cycles) == want
        assert all(type(v) is type(w) for v, w in zip(bd._shares(cycles), want))
        stats = ThreadStats()
        exposed = cycles + frac
        if min(want) < 0:
            with pytest.raises(ValueError):
                stats.charge_breakdown(bd, exposed)
            return
        stats.charge_breakdown(bd, exposed)
        ref = {name: 0.0 for name in COMPONENTS}
        for name, value in zip(("L2", "BUS", "L3", "MEM", "PreL2"), want):
            ref[name] += value
        ref["COMPUTE"] += exposed - sum(want)
        assert stats.components == ref


class TestRunStats:
    def test_cycles_is_slowest_thread(self):
        rs = RunStats(
            threads=[ThreadStats(thread_id=0, cycles=10), ThreadStats(thread_id=1, cycles=25)]
        )
        assert rs.cycles == 25

    def test_producer_consumer_conventions(self):
        rs = RunStats(
            threads=[ThreadStats(thread_id=0), ThreadStats(thread_id=1)]
        )
        assert rs.producer.thread_id == 0
        assert rs.consumer.thread_id == 1

    def test_missing_thread(self):
        with pytest.raises(KeyError):
            RunStats(threads=[]).thread(0)

    def test_empty_run_cycles(self):
        assert RunStats().cycles == 0


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_identity(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10))
    def test_scale_invariance(self, values):
        g1 = geomean(values)
        g2 = geomean([v * 2 for v in values])
        assert g2 == pytest.approx(2 * g1, rel=1e-9)
