"""TraceBuffer / TraceConfig unit tests: bounds, filtering, accounting."""

from __future__ import annotations

import pytest

from repro.trace.buffer import NULL_TRACE, TraceBuffer, TraceConfig
from repro.trace.events import CATEGORIES, TraceEvent, category_of


class TestTraceConfig:
    def test_defaults_validate(self):
        cfg = TraceConfig().validate()
        assert cfg.capacity > 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceConfig(capacity=0).validate()

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="nonsense"):
            TraceConfig(categories=("queue", "nonsense")).validate()

    def test_known_categories_accepted(self):
        TraceConfig(categories=tuple(CATEGORIES)).validate()


class TestCategoryOf:
    def test_dotted_kind(self):
        assert category_of("queue.publish") == "queue"

    def test_undotted_kind_is_its_own_category(self):
        assert category_of("custom") == "custom"


class TestTraceBuffer:
    def test_emit_and_iterate_in_order(self):
        buf = TraceBuffer(TraceConfig(capacity=16))
        buf.emit("queue.publish", 10.0, queue=0, item=0)
        buf.emit("queue.free", 20.0, queue=0, item=0)
        kinds = [ev.kind for ev in buf]
        assert kinds == ["queue.publish", "queue.free"]
        assert [ev.seq for ev in buf] == [0, 1]

    def test_ring_keeps_newest_and_counts_dropped(self):
        buf = TraceBuffer(TraceConfig(capacity=4))
        for i in range(10):
            buf.emit("core.retire", float(i), core=0)
        assert len(buf) == 4
        assert buf.emitted == 10
        assert buf.dropped == 6
        assert [ev.ts for ev in buf] == [6.0, 7.0, 8.0, 9.0]

    def test_dropped_never_negative_under_category_filter(self):
        # Regression: filtered events must not count toward `dropped`.
        buf = TraceBuffer(TraceConfig(capacity=1 << 10, categories=("comm",)))
        for i in range(100):
            buf.emit("bus.grant", float(i), core=0, dur=1.0)
        buf.emit("comm.produce", 1.0, core=0, dur=5.0)
        assert buf.filtered == 100
        assert buf.emitted == 1
        assert buf.dropped == 0
        assert len(buf) == 1

    def test_filter_with_overflow_accounts_both(self):
        buf = TraceBuffer(TraceConfig(capacity=4, categories=("comm",)))
        for i in range(10):
            buf.emit("comm.consume", float(i), core=1)
            buf.emit("sched.block", float(i), core=1)
        assert buf.filtered == 10
        assert buf.emitted == 10
        assert buf.dropped == 6
        assert len(buf) == 4

    def test_select_by_kind_core_queue(self):
        buf = TraceBuffer()
        buf.emit("queue.publish", 1.0, queue=0, item=0)
        buf.emit("queue.publish", 2.0, queue=1, item=0)
        buf.emit("comm.produce", 3.0, core=0, queue=0, dur=4.0)
        assert len(buf.select(kind="queue.publish")) == 2
        assert len(buf.select(kind="queue.publish", queue=1)) == 1
        assert len(buf.select(category="comm")) == 1
        assert len(buf.select(core=0)) == 1

    def test_tail_and_tail_by_core(self):
        buf = TraceBuffer()
        for i in range(6):
            buf.emit("core.retire", float(i), core=i % 2)
        assert [ev.ts for ev in buf.tail(2)] == [4.0, 5.0]
        assert buf.tail(0) == []
        by_core = buf.tail_by_core(n_per_core=2)
        assert [ev.ts for ev in by_core[0]] == [2.0, 4.0]
        assert [ev.ts for ev in by_core[1]] == [3.0, 5.0]

    def test_describe_mentions_counts(self):
        buf = TraceBuffer(TraceConfig(capacity=2))
        for i in range(3):
            buf.emit("core.retire", float(i))
        text = buf.describe()
        assert "3 emitted" in text and "1 dropped" in text


class TestEventSemantics:
    def test_span_end(self):
        ev = TraceEvent(seq=0, kind="comm.produce", ts=10.0, dur=5.0)
        assert ev.end == 15.0

    def test_describe_renders_location_and_args(self):
        ev = TraceEvent(
            seq=0, kind="queue.block", ts=7.0, core=1, queue=2, args={"reason": "full"}
        )
        text = ev.describe()
        assert "core 1" in text and "queue 2" in text and "reason=full" in text


class TestNullTrace:
    def test_null_trace_is_inert(self):
        NULL_TRACE.emit("core.retire", 1.0, core=0)
        assert len(NULL_TRACE) == 0
        assert list(NULL_TRACE) == []
        assert NULL_TRACE.events == []
        assert NULL_TRACE.dropped == 0
        assert NULL_TRACE.tail(5) == []
        assert NULL_TRACE.tail_by_core() == {}
