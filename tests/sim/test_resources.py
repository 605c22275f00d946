"""Unit + property tests for resource timelines."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.resources import ThroughputPort, UnitPool


class TestUnitPool:
    def test_single_unit_serializes(self):
        pool = UnitPool(1)
        assert pool.acquire(0.0, busy=5.0) == 0.0
        assert pool.acquire(0.0, busy=5.0) == 5.0
        assert pool.acquire(12.0, busy=1.0) == 12.0

    def test_multiple_units_parallel(self):
        pool = UnitPool(2)
        assert pool.acquire(0.0, busy=10.0) == 0.0
        assert pool.acquire(0.0, busy=10.0) == 0.0
        assert pool.acquire(0.0, busy=10.0) == 10.0

    def test_earliest_grant_does_not_book(self):
        pool = UnitPool(1)
        pool.acquire(0.0, busy=4.0)
        assert pool.earliest_grant(1.0) == 4.0
        assert pool.earliest_grant(1.0) == 4.0  # unchanged

    def test_begin_end_two_phase(self):
        pool = UnitPool(1)
        grant = pool.begin(0.0)
        assert grant == 0.0
        pool.end(grant, 7.0)
        assert pool.acquire(0.0, busy=1.0) == 7.0

    def test_end_without_begin(self):
        with pytest.raises(RuntimeError):
            UnitPool(1).end(0.0, 1.0)

    def test_interleaved_begin_end(self):
        pool = UnitPool(2)
        g1 = pool.begin(0.0)
        g2 = pool.begin(0.0)
        pool.end(g2, 3.0)
        pool.end(g1, 9.0)
        # Units are fungible: free at 3 and 9; the first acquire takes the
        # unit free at 3 and re-frees it at 4, which is then earliest again.
        assert pool.acquire(0.0, busy=1.0) == 3.0
        assert pool.acquire(0.0, busy=1.0) == 4.0

    def test_rejects_zero_units(self):
        with pytest.raises(ValueError):
            UnitPool(0)

    def test_rejects_negative_busy(self):
        with pytest.raises(ValueError):
            UnitPool(1).acquire(0.0, busy=-1.0)

    def test_grant_counter(self):
        pool = UnitPool(2)
        pool.acquire(0.0)
        pool.acquire(0.0)
        assert pool.grants == 2

    def test_utilization(self):
        pool = UnitPool(1)
        pool.acquire(0.0, busy=50.0)
        assert pool.utilization(100.0) == pytest.approx(0.5)

    @given(
        n_units=st.integers(1, 4),
        requests=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0.1, 10)), min_size=1, max_size=40
        ),
    )
    def test_grants_never_before_request(self, n_units, requests):
        pool = UnitPool(n_units)
        for at, busy in requests:
            assert pool.acquire(at, busy=busy) >= at

    @given(st.lists(st.floats(0, 50), min_size=2, max_size=30))
    def test_single_unit_grants_never_overlap(self, times):
        pool = UnitPool(1)
        grants = sorted(pool.acquire(t, busy=2.0) for t in times)
        for a, b in zip(grants, grants[1:]):
            assert b >= a + 2.0 - 1e-9


class TestThroughputPort:
    def test_issue_interval(self):
        port = ThroughputPort(2.0)
        assert port.acquire(0.0) == 0.0
        assert port.acquire(0.0) == 2.0
        assert port.acquire(10.0) == 10.0

    def test_custom_occupancy(self):
        port = ThroughputPort(1.0)
        port.acquire(0.0, occupancy=5.0)
        assert port.acquire(0.0) == 5.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ThroughputPort(0.0)

    def test_earliest_grant(self):
        port = ThroughputPort(4.0)
        port.acquire(0.0)
        assert port.earliest_grant(1.0) == 4.0
