"""The 1 KB stream cache (SC) and the SYNCOPTI_SC mechanism (Section 5).

SYNCOPTI's consume-to-use latency is ≥6 cycles: stream-address generation
followed by the L2 access where synchronization happens.  The stream cache
cuts this to 1 cycle: when a write-forwarded queue line fills the consumer's
L2, its memory address is reverse-mapped to a queue address — a (queue
number, queue slot) two-tuple — and the items are deposited in a small
fully-associative structure inside the core.  Consume instructions that hit
read their datum without TLB lookup or memory address generation; entries
are invalidated by the consuming hit; fills are ignored when the cache is
full; misses fall back to the ordinary SYNCOPTI L2 path.  Hitting consumes
still send their counter update to the L2 (off the critical path) so the
producer's occupancy tracking is unaffected.

The structure costs less than 1% of HEAVYWT's dedicated backing store yet
(combined with the 64-entry/QLU-16 queue configuration) brings SYNCOPTI
within 2% of HEAVYWT — the paper's headline result.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.mechanism import register_mechanism
from repro.core.queue_model import QueueChannel
from repro.core.syncopti import SyncOptiMechanism
from repro.sim.config import StreamCacheConfig
from repro.sim.stats import LatencyBreakdown


class StreamCache:
    """Fully-associative queue-addressed cache of forwarded stream items."""

    def __init__(self, config: StreamCacheConfig) -> None:
        config.validate()
        self.config = config
        self.capacity = config.n_entries
        #: (queue_id, slot) -> fill-arrival time.
        self._entries: Dict[Tuple[int, int], float] = {}
        self.fills = 0
        self.fills_ignored = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def fill(self, queue_id: int, slot: int, arrival: float) -> bool:
        """Deposit one forwarded item; ignored when the cache is full."""
        key = (queue_id, slot)
        if key not in self._entries and len(self._entries) >= self.capacity:
            self.fills_ignored += 1
            return False
        self._entries[key] = arrival
        self.fills += 1
        return True

    def lookup(self, queue_id: int, slot: int, at: float):
        """Consume-side probe: hit pops the entry (invalidate-on-hit).

        Returns the fill-arrival time on a hit (which may be in the future
        if the fill is still in flight), or ``None`` on a miss.
        """
        key = (queue_id, slot)
        arrival = self._entries.pop(key, None)
        if arrival is None:
            self.misses += 1
            return None
        self.hits += 1
        return arrival

    def invalidate_queue(self, queue_id: int) -> int:
        """Drop all entries of one queue (context-switch support)."""
        victims = [k for k in self._entries if k[0] == queue_id]
        for k in victims:
            del self._entries[k]
        return len(victims)


@register_mechanism("syncopti_sc")
class StreamCacheMechanism(SyncOptiMechanism):
    """SYNCOPTI with the per-core stream cache enabled.

    Only the published-item read differs from base SYNCOPTI: it probes the
    consumer's stream cache first and falls back to the L2 read on a miss.
    Waiting, the partial-line timeout and the bulk ACK are SYNCOPTI's.
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        sc_cfg = machine.config.stream_cache
        self._caches = [StreamCache(sc_cfg) for _ in range(machine.config.n_cores)]
        self._hit_latency = sc_cfg.hit_latency

    def stream_cache(self, core_id: int) -> StreamCache:
        return self._caches[core_id]

    # ------------------------------------------------------------------

    def _fill_stream_cache(self, ch: QueueChannel, last_slot: int, arrival: float) -> None:
        """Reverse-map a forwarded line's items into the consumer's SC."""
        sc = self._caches[ch.consumer_core]
        queue_id = ch.layout.queue_id
        for slot in range(last_slot - ch.layout.qlu + 1, last_slot + 1):
            sc.fill(queue_id, slot, arrival)

    def _visible_item(self, core, ch: QueueChannel, item: int, t_sync: float):
        """Try the stream cache first; fall back to the SYNCOPTI L2 read.

        A hit is only possible once the line's forward has been simulated,
        so the probe comes after the item is visible — the wait, with its
        partial-line deadline, is base SYNCOPTI's.
        """
        layout = ch.layout
        arrival = self._caches[core.core_id].lookup(
            layout.queue_id, item % layout.depth, t_sync
        )
        if arrival is None:
            core.stats.stream_cache_misses += 1
            return super()._visible_item(core, ch, item, t_sync)
        core.stats.stream_cache_hits += 1
        avail = ch.produced[item]
        if arrival > avail:
            avail = arrival
        wait = avail - t_sync if avail > t_sync else 0.0
        core.stats.queue_empty_stall += wait
        # 1-cycle consume-to-use; the stream address logic's latency is
        # what the SC bypasses.
        issue = t_sync - self._stream_addr_latency
        ready = issue + self._hit_latency
        if avail > ready:
            ready = avail
        # Counter update still goes to the L2, off the critical path.
        self._ozq[core.core_id].acquire_port(ready)
        if ready > core.horizon:
            core.horizon = ready
        return ready, LatencyBreakdown(int(ready - issue), 0, 0, 0, 0, int(wait))
