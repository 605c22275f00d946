"""Tests for the stream cache structure and the SYNCOPTI_SC mechanism."""

from hypothesis import given, strategies as st

from repro.core.stream_cache import StreamCache
from repro.sim.config import StreamCacheConfig, baseline_config
from repro.sim.machine import Machine

from tests.conftest import run_mechanism, simple_stream_program


def make_sc(size=1024, item=8):
    return StreamCache(StreamCacheConfig(size_bytes=size, item_bytes=item))


class TestStreamCacheStructure:
    def test_capacity_is_128_entries(self):
        assert make_sc().capacity == 128

    def test_fill_then_hit(self):
        sc = make_sc()
        assert sc.fill(0, 3, arrival=10.0)
        assert sc.lookup(0, 3, at=20.0) == 10.0
        assert sc.hits == 1

    def test_invalidate_on_hit(self):
        sc = make_sc()
        sc.fill(0, 3, 10.0)
        sc.lookup(0, 3, 20.0)
        assert sc.lookup(0, 3, 30.0) is None  # consumed entries vanish
        assert sc.misses == 1

    def test_fills_ignored_when_full(self):
        sc = make_sc(size=16, item=8)  # 2 entries
        assert sc.fill(0, 0, 1.0)
        assert sc.fill(0, 1, 1.0)
        assert not sc.fill(0, 2, 1.0)
        assert sc.fills_ignored == 1
        assert len(sc) == 2

    def test_refill_existing_key_allowed_when_full(self):
        sc = make_sc(size=16, item=8)
        sc.fill(0, 0, 1.0)
        sc.fill(0, 1, 1.0)
        assert sc.fill(0, 0, 5.0)  # overwrite, not a new entry
        assert sc.lookup(0, 0, 9.0) == 5.0

    def test_invalidate_queue(self):
        sc = make_sc()
        sc.fill(0, 0, 1.0)
        sc.fill(0, 1, 1.0)
        sc.fill(1, 0, 1.0)
        assert sc.invalidate_queue(0) == 2
        assert len(sc) == 1

    def test_miss_counts(self):
        sc = make_sc()
        assert sc.lookup(5, 5, 0.0) is None
        assert sc.misses == 1

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 31), st.booleans()),
            max_size=300,
        )
    )
    def test_never_exceeds_capacity(self, ops):
        sc = make_sc(size=64, item=8)  # 8 entries
        t = 0.0
        for qid, slot, is_fill in ops:
            t += 1.0
            if is_fill:
                sc.fill(qid, slot, t)
            else:
                sc.lookup(qid, slot, t)
            assert len(sc) <= sc.capacity


class TestStreamCacheMechanism:
    def test_hits_recorded(self):
        stats, machine = run_mechanism("syncopti_sc", simple_stream_program(64))
        assert stats.consumer.stream_cache_hits > 0

    def test_sc_not_slower_than_base_syncopti(self):
        sc_stats, _ = run_mechanism("syncopti_sc", simple_stream_program(96))
        so_stats, _ = run_mechanism("syncopti", simple_stream_program(96))
        assert sc_stats.cycles <= so_stats.cycles * 1.05

    def test_counter_update_still_reaches_l2(self):
        """Hitting consumes still update occupancy counters (bulk ACKs)."""
        stats, machine = run_mechanism("syncopti_sc", simple_stream_program(32))
        ch = machine.channels[0]
        assert len(ch.freed) == 32

    def test_timeout_path_misses_sc(self):
        """Partial lines are never filled into the SC (no forward)."""
        stats, machine = run_mechanism("syncopti_sc", simple_stream_program(5))
        assert stats.consumer.stream_cache_hits == 0
        assert machine.channels[0].n_consumed == 5

    def test_per_core_caches_isolated(self):
        machine = Machine(baseline_config(), mechanism="syncopti_sc")
        mech = machine.mechanism
        assert mech.stream_cache(0) is not mech.stream_cache(1)


class TestWcOverflow:
    """Figure 12's wc: at SC+Q64 the stream cache overflows.

    wc's three queues hold 96 items at depth 32 but 192 at depth 64, more
    than the 128-entry stream cache, and ``StreamCache.fill`` drops an item
    that arrives at a full cache; each drop becomes a consume miss on the
    L2 path.  That is why SC+Q64 runs slower than SC on wc.  (Whether
    drop-when-full is the paper's policy is an open fidelity question.)
    """

    @staticmethod
    def _consumer_cache(point):
        from repro.harness.experiments import EXPERIMENT_TRIPS
        from repro.harness.runner import run_benchmark

        result = run_benchmark("wc", point, EXPERIMENT_TRIPS["wc"])
        return result.cycles, result.machine.mechanism.stream_cache(1)

    def test_sc_drops_no_fill(self):
        cycles, sc = self._consumer_cache("SYNCOPTI_SC")
        assert (sc.fills, sc.fills_ignored) == (1488, 0)
        assert cycles == 5541

    def test_sc_q64_drops_303_of_1488_fills(self):
        cycles, sc = self._consumer_cache("SYNCOPTI_SC_Q64")
        assert (sc.fills + sc.fills_ignored, sc.fills_ignored) == (1488, 303)
        assert cycles == 6803
