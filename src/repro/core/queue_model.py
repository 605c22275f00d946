"""Architectural inter-thread queues: layout, state, and visibility timing.

Every communication mechanism in the paper implements the same architectural
contract — a bounded FIFO of fixed-size items between a producer thread and a
consumer thread — but differs in *where the backing bytes live* and *when
each side learns about the other's progress*.  This module provides the two
mechanism-independent halves of that contract:

* :class:`QueueLayout` maps queue slots to backing-store byte addresses,
  implementing the queue-layout-unit (QLU) packing of Figure 5 (co-located
  data + flag for software queues; densely packed items for SYNCOPTI).

* :class:`QueueChannel` records the *visibility timeline* of one queue:
  for every item, when its value becomes observable to the consumer
  (``produced``), and when its slot's recycling becomes observable to the
  producer (``freed``).  Mechanisms append to these lists as their produce /
  consume / forward / ACK events complete; the co-simulation scheduler uses
  list growth as the wake-up condition for blocked threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

#: Base byte address of the queue backing region in the simulated address
#: space, far above any workload data region.
QUEUE_REGION_BASE = 0x8000_0000

#: Bytes reserved per queue in the backing region (large enough for the
#: biggest configuration: 64 entries x 16-byte software-queue slots).
QUEUE_REGION_STRIDE = 0x1_0000


def queue_of_addr(addr: int) -> Optional[int]:
    """Architectural queue id backing ``addr``, or ``None`` for regular data.

    Used by the memory system's fault hooks to map a forwarded line back to
    the queue it carries, so fault rules can target individual queues.
    """
    if addr < QUEUE_REGION_BASE:
        return None
    return (addr - QUEUE_REGION_BASE) // QUEUE_REGION_STRIDE


@dataclass
class QueueLayout:
    """Slot-to-address mapping for one queue's memory backing store.

    Args:
        queue_id: Architectural queue number.
        depth: Number of slots.
        item_bytes: Payload size of one queue item.
        qlu: Queue layout unit — items per cache line (Figure 5).
        line_bytes: Cache line size of the backing level (L2: 128 B).
        flag_bytes: Per-slot synchronization flag storage.  Software queues
            co-locate an 8-byte lock word with each item; hardware-counter
            designs (SYNCOPTI, HEAVYWT) use 0.
    """

    queue_id: int
    depth: int = 32
    item_bytes: int = 8
    qlu: int = 8
    line_bytes: int = 128
    flag_bytes: int = 0

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.item_bytes <= 0 or self.qlu <= 0:
            raise ValueError("queue layout fields must be positive")
        if self.depth % self.qlu != 0:
            raise ValueError("depth must be a multiple of the QLU")
        if self.line_bytes % self.qlu != 0:
            # A stride of line_bytes // qlu would leave a remainder, so queue
            # line k's slots would begin before line_addr(k), on the previous
            # cache line.
            raise ValueError(
                f"QLU {self.qlu} does not divide the {self.line_bytes}B line"
            )
        if self.qlu * self.slot_bytes > self.line_bytes:
            raise ValueError(
                f"QLU {self.qlu} x slot {self.slot_bytes}B exceeds a "
                f"{self.line_bytes}B line"
            )
        #: Per-slot payload and flag addresses (``flag_addrs`` is ``None``
        #: without per-slot flags): the tables behind :meth:`data_addr`
        #: and :meth:`flag_addr`, indexed by ``item % depth``.
        base, stride = self.base, self.slot_stride
        self.data_addrs = tuple(base + slot * stride for slot in range(self.depth))
        self.flag_addrs = (
            tuple(addr + self.item_bytes for addr in self.data_addrs)
            if self.flag_bytes
            else None
        )

    @property
    def slot_bytes(self) -> int:
        """Bytes consumed per slot, including any co-located flag."""
        return self.item_bytes + self.flag_bytes

    @property
    def slot_stride(self) -> int:
        """Address stride between consecutive slots on a line.

        Slots are spread so exactly ``qlu`` of them share one line: a sparse
        layout (QLU 1) pads each slot to a full line (Figure 5, bottom).
        """
        return self.line_bytes // self.qlu

    @property
    def base(self) -> int:
        return QUEUE_REGION_BASE + self.queue_id * QUEUE_REGION_STRIDE

    @property
    def n_lines(self) -> int:
        """Distinct cache lines backing the queue."""
        return self.depth // self.qlu

    def slot_of(self, item_index: int) -> int:
        """Queue slot used by the ``item_index``-th item ever enqueued."""
        if item_index < 0:
            raise ValueError("item index must be non-negative")
        return item_index % self.depth

    def data_addr(self, item_index: int) -> int:
        """Backing-store address of an item's payload."""
        return self.data_addrs[self.slot_of(item_index)]

    def flag_addr(self, item_index: int) -> int:
        """Backing-store address of an item's full/empty flag (co-located)."""
        if self.flag_bytes == 0:
            raise ValueError("this layout has no per-slot flags")
        return self.flag_addrs[self.slot_of(item_index)]

    def line_of(self, item_index: int) -> int:
        """Backing line index (0..n_lines-1) holding an item's slot."""
        return self.slot_of(item_index) // self.qlu

    def line_addr(self, line: int) -> int:
        """Byte address of the start of backing line ``line``."""
        if not 0 <= line < self.n_lines:
            raise ValueError(f"line {line} out of range")
        return self.base + line * self.line_bytes

    def is_last_in_line(self, item_index: int) -> bool:
        """Does this item fill the last slot of its backing line?"""
        return self.slot_of(item_index) % self.qlu == self.qlu - 1


@dataclass
class QueueChannel:
    """Visibility timeline and endpoint binding of one inter-thread queue.

    The channel is the single synchronization object shared between the two
    cores' mechanism instances and the co-simulation scheduler.  All fields
    are monotone (append-only lists, increasing counters) which is what makes
    lazy, min-timestamp co-simulation sound.
    """

    layout: QueueLayout
    producer_core: int = 0
    consumer_core: int = 1
    #: produced[i]: time item i's value is observable by the consumer.
    produced: List[float] = field(default_factory=list)
    #: freed[i]: time item i's slot recycling is observable by the producer.
    freed: List[float] = field(default_factory=list)
    #: store_complete[i]: time the producer's write of item i completed
    #: locally (SYNCOPTI's timeout path needs this before the line forwards).
    store_complete: List[float] = field(default_factory=list)
    #: line -> arrival time of its write-forward at the consumer.
    line_forwarded: Dict[int, float] = field(default_factory=dict)
    n_produced: int = 0
    n_consumed: int = 0
    #: Optional fault plan consulted when slot recycling is recorded; the
    #: channel is the natural hook point for QUEUE_SLOT_STALL faults because
    #: every mechanism funnels its frees through ``record_freed``.
    fault_plan: Optional["FaultPlan"] = field(default=None, repr=False, compare=False)
    #: Set when an infinite slot stall wedges the channel: no further frees
    #: are ever observed by the producer (forced-deadlock fault scenarios).
    wedged: bool = False
    #: Optional :class:`~repro.trace.buffer.TraceBuffer` shared with the
    #: owning machine; ``None`` keeps each record hook to a single branch.
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def queue_id(self) -> int:
        return self.layout.queue_id

    @property
    def depth(self) -> int:
        return self.layout.depth

    def occupancy_bound(self) -> int:
        """Items produced but not yet known-consumed (conservative)."""
        return self.n_produced - len(self.freed)

    def producer_must_wait_for(self, item_index: int) -> Optional[int]:
        """Index of the `freed` entry gating production of ``item_index``.

        Returns ``None`` when the queue cannot be full for this item (the
        first ``depth`` items never wait).
        """
        if item_index < self.depth:
            return None
        return item_index - self.depth

    def record_produced(self, visible_at: float) -> int:
        """Append one item's consumer-visibility time; returns its index."""
        index = len(self.produced)
        self.produced.append(visible_at)
        self.n_produced = max(self.n_produced, index + 1)
        if self.trace is not None:
            self.trace.emit(
                "queue.publish", visible_at, queue=self.queue_id, item=index
            )
        return index

    def record_freed(self, visible_at: float) -> int:
        """Append one slot-free visibility time; returns its item index.

        An active fault plan may stall the slot (delaying the visibility
        time) or — with an infinite stall — wedge the channel, after which
        this method drops all frees on the floor and the producer eventually
        deadlocks (diagnosed by the post-mortem's ``wedged`` flag).
        """
        index = len(self.freed)
        if self.wedged:
            return index
        if self.fault_plan is not None:
            stall = self.fault_plan.queue_slot_stall(self.queue_id, index, visible_at)
            if math.isinf(stall):
                self.wedged = True
                if self.trace is not None:
                    self.trace.emit(
                        "queue.wedge", visible_at, queue=self.queue_id, item=index
                    )
                return index
            visible_at += stall
        self.freed.append(visible_at)
        if self.trace is not None:
            self.trace.emit(
                "queue.free", visible_at, queue=self.queue_id, item=index
            )
        return index

    def record_freed_bulk(self, count: int, visible_at: float) -> None:
        """Bulk ACK: mark ``count`` further items' slots free at one time."""
        for _ in range(count):
            self.record_freed(visible_at)

    def record_forward(self, line: int, arrival: float) -> None:
        self.line_forwarded[line] = arrival
        if self.trace is not None:
            self.trace.emit(
                "queue.forward", arrival, queue=self.queue_id, line=line
            )
