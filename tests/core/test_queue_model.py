"""Unit + property tests for queue layouts and visibility channels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.design_points import DESIGN_POINTS
from repro.core.mechanism import available_mechanisms
from repro.core.queue_model import (
    QUEUE_REGION_BASE,
    QUEUE_REGION_STRIDE,
    QueueChannel,
    QueueLayout,
)
from repro.sim.config import baseline_config
from repro.sim.machine import Machine


class TestLayout:
    def test_software_queue_layout_matches_figure5(self):
        """QLU 8: 8 slots of (8B data + 8B lock) fill one 128B line."""
        lay = QueueLayout(queue_id=0, qlu=8, flag_bytes=8)
        assert lay.slot_bytes == 16
        assert lay.slot_stride == 16
        assert lay.n_lines == 4
        assert lay.line_of(7) == 0
        assert lay.line_of(8) == 1

    def test_sparse_layout_qlu1(self):
        """QLU 1 pads each slot to a full line (no false sharing)."""
        lay = QueueLayout(queue_id=0, depth=32, qlu=1, flag_bytes=8)
        assert lay.slot_stride == 128
        assert lay.n_lines == 32

    def test_q64_packing(self):
        """Section 5's Q64: 16 packed 8-byte items per line."""
        lay = QueueLayout(queue_id=0, depth=64, qlu=16, flag_bytes=0)
        assert lay.slot_stride == 8
        assert lay.n_lines == 4

    def test_overpacked_rejected(self):
        with pytest.raises(ValueError):
            QueueLayout(queue_id=0, qlu=16, flag_bytes=8)  # 16*16 > 128

    def test_item_wraps_around_depth(self):
        lay = QueueLayout(queue_id=0, depth=32)
        assert lay.slot_of(0) == lay.slot_of(32) == lay.slot_of(64)

    def test_flag_addr_requires_flags(self):
        lay = QueueLayout(queue_id=0, flag_bytes=0)
        with pytest.raises(ValueError):
            lay.flag_addr(0)

    def test_flag_follows_data(self):
        lay = QueueLayout(queue_id=0, flag_bytes=8)
        assert lay.flag_addr(3) == lay.data_addr(3) + 8

    def test_queue_regions_disjoint(self):
        a = QueueLayout(queue_id=0)
        b = QueueLayout(queue_id=1)
        assert b.base - a.base == QUEUE_REGION_STRIDE
        assert a.base >= QUEUE_REGION_BASE

    def test_is_last_in_line(self):
        lay = QueueLayout(queue_id=0, qlu=8)
        assert lay.is_last_in_line(7)
        assert not lay.is_last_in_line(6)
        assert lay.is_last_in_line(15)
        assert lay.is_last_in_line(39)  # wraps: slot 7

    @given(item=st.integers(0, 10_000))
    def test_addresses_stay_in_region(self, item):
        lay = QueueLayout(queue_id=3, depth=32, qlu=8, flag_bytes=8)
        addr = lay.data_addr(item)
        assert lay.base <= addr < lay.base + QUEUE_REGION_STRIDE

    @given(item=st.integers(0, 1000))
    def test_line_of_consistent_with_addr(self, item):
        lay = QueueLayout(queue_id=0, depth=32, qlu=8, flag_bytes=8)
        line_from_addr = (lay.data_addr(item) - lay.base) // lay.line_bytes
        assert line_from_addr == lay.line_of(item)

    @given(
        depth=st.sampled_from([8, 16, 32, 64]),
        qlu=st.sampled_from([1, 2, 4, 8]),
    )
    def test_exactly_qlu_items_per_line(self, depth, qlu):
        lay = QueueLayout(queue_id=0, depth=depth, qlu=qlu, flag_bytes=8)
        per_line = {}
        for item in range(depth):
            per_line.setdefault(lay.line_of(item), set()).add(lay.slot_of(item))
        assert all(len(slots) == qlu for slots in per_line.values())

    def test_qlu_must_divide_the_line(self):
        """A stride of 128 // 3 = 42 would put queue line 1's first slot at
        +0x7e, inside cache line 0."""
        with pytest.raises(ValueError, match="divide"):
            QueueLayout(queue_id=0, depth=24, qlu=3, item_bytes=16)

    @given(
        qlu=st.integers(1, 32),
        lines=st.integers(1, 8),
        item_bytes=st.integers(1, 64),
        flag_bytes=st.sampled_from([0, 8]),
    )
    def test_queue_lines_never_straddle_cache_lines(self, qlu, lines, item_bytes, flag_bytes):
        """Every accepted layout keeps each slot of queue line k inside
        ``[line_addr(k), line_addr(k) + line_bytes)``; every rejected one
        has a QLU that does not divide the line or overpacks it."""
        depth = qlu * lines
        try:
            lay = QueueLayout(
                queue_id=0, depth=depth, qlu=qlu, item_bytes=item_bytes, flag_bytes=flag_bytes
            )
        except ValueError:
            assert 128 % qlu or qlu * (item_bytes + flag_bytes) > 128
            return
        _assert_lines_contained(lay)

    @given(
        point=st.sampled_from(sorted(DESIGN_POINTS)),
        depth=st.integers(1, 64),
        qlu=st.integers(1, 16),
        item_bytes=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_for_keeps_lines_whole_on_accepted_configs(
        self, point, depth, qlu, item_bytes
    ):
        dp = DESIGN_POINTS[point]
        cfg = dp.build_config()
        cfg.queues.depth, cfg.queues.qlu, cfg.queues.item_bytes = depth, qlu, item_bytes
        try:
            cfg.validate()
        except ValueError:
            return
        lay = Machine(cfg, mechanism=dp.mechanism).mechanism.layout_for(0)
        assert depth % lay.qlu == 0 and lay.qlu <= qlu
        _assert_lines_contained(lay)

    def test_layout_for_skips_a_qlu_that_splits_the_line(self):
        """SYNCOPTI, depth 40, 24-byte items: 5 slots fit a line, but a
        stride of 128 // 5 would put slot 5 at +0x7d; the QLU falls to 4."""
        dp = DESIGN_POINTS["SYNCOPTI"]
        cfg = dp.build_config()
        cfg.queues.depth, cfg.queues.item_bytes = 40, 24
        lay = Machine(cfg.validate(), mechanism=dp.mechanism).mechanism.layout_for(0)
        assert lay.qlu == 4
        _assert_lines_contained(lay)

    @pytest.mark.parametrize("mechanism", available_mechanisms())
    def test_slot_wider_than_a_line_is_a_config_error(self, mechanism):
        """A slot (item plus the mechanism's flag bytes) must fit one L2 line:
        the widest that fits lays out one slot per line, and one byte more
        fails when the machine is built, not with a division by zero at the
        first channel."""
        line = baseline_config().l2.line_bytes
        flag = Machine(baseline_config(), mechanism=mechanism).mechanism.flag_bytes
        fits = baseline_config()
        fits.queues.item_bytes = line - flag
        assert Machine(fits, mechanism=mechanism).channel(0).layout.qlu == 1
        for item_bytes in (line - flag + 1, 2 * line):
            wide = baseline_config()
            wide.queues.item_bytes = item_bytes
            with pytest.raises(ValueError, match=rf"\({item_bytes}-byte item \+ {flag}-byte flag\)"):
                Machine(wide, mechanism=mechanism)


def _assert_lines_contained(lay):
    for item in range(lay.depth):
        start = lay.line_addr(lay.line_of(item))
        addr = lay.data_addr(item)
        assert start <= addr and addr + lay.slot_bytes <= start + lay.line_bytes, (
            f"slot {item} at +{addr - lay.base:#x} leaves queue line {lay.line_of(item)}"
        )


class TestChannel:
    def make(self, depth=4) -> QueueChannel:
        return QueueChannel(layout=QueueLayout(queue_id=0, depth=depth, qlu=2))

    def test_first_depth_items_never_wait(self):
        ch = self.make(depth=4)
        for i in range(4):
            assert ch.producer_must_wait_for(i) is None
        assert ch.producer_must_wait_for(4) == 0
        assert ch.producer_must_wait_for(9) == 5

    def test_record_produced_indexes(self):
        ch = self.make()
        assert ch.record_produced(10.0) == 0
        assert ch.record_produced(12.0) == 1
        assert ch.produced == [10.0, 12.0]

    def test_record_freed_bulk(self):
        ch = self.make()
        ch.record_freed_bulk(3, 99.0)
        assert ch.freed == [99.0] * 3

    def test_occupancy_bound(self):
        ch = self.make()
        ch.n_produced = 5
        ch.record_freed(1.0)
        ch.record_freed(2.0)
        assert ch.occupancy_bound() == 3

    def test_forward_recording(self):
        ch = self.make()
        ch.record_forward(1, 42.0)
        assert ch.line_forwarded[1] == 42.0

    def test_queue_id_passthrough(self):
        assert self.make().queue_id == 0
