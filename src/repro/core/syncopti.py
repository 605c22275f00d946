"""SYNCOPTI: streaming-tuned message passing atop shared memory (§4.2).

SYNCOPTI adds ``produce``/``consume`` instructions to the ISA but keeps the
memory subsystem as the backing store and the existing L3 bus as the
interconnect — the paper's light-weight sweet spot.  The moving parts:

* **Stream address logic** renames produce/consume instructions to
  consecutive backing-store addresses; its 2-cycle latency overlaps the L1
  access but serializes the trip to the L2, making the consume-to-use
  latency at least ``stream_addr + L2`` cycles (vs 1 cycle in HEAVYWT).
* **Occupancy counters** at each L2 controller synchronize the two sides
  without any flag traffic.  A produce to a full queue sits *dormant* in one
  OzQ entry until the counter permits — filling the OzQ and backpressuring
  the pipeline (PreL2), but not churning L2 ports like a software spin.
* **Locality-enhanced write-forwarding** pushes a backing line to the
  consumer's L2 only after *all* QLU entries on it are written, and hands
  ownership over (the producer's copy is released).  Forwarding doubles as
  the consumer-side counter update: items become consumable when their line
  arrives.
* **Bulk ACKs**: when the consumer reads the last item on a line it puts a
  single counter-update message on the bus, freeing all the line's slots at
  the producer at once.
* **Wrap-around stall**: a producer re-entering a line stalls until the
  consumer has drained it, preserving the consumer's spatial locality.
* **Partial-line timeout**: a consume whose line will never fill (stream
  ended or producer stalled mid-line) times out and performs a demand L2/L3
  access, eliciting a writeback of the partial line from the producer —
  avoiding deadlock (Section 4.2).
"""

from __future__ import annotations

from typing import Generator

from repro.core.mechanism import CommMechanism, register_mechanism
from repro.core.queue_model import QueueChannel
from repro.sim.isa import DynInst


@register_mechanism("syncopti")
class SyncOptiMechanism(CommMechanism):
    """Produce/consume instructions + counters over the memory subsystem.

    Each comm op reads its queue geometry straight off the layout — slot
    ``item % depth``, line end ``slot % qlu == qlu - 1``, full-queue gate
    ``item - depth`` and payload address ``data_addrs[slot]`` — and
    creates a :meth:`wait_for_len` generator only when it must block.  The
    stream-address latency, the partial-line timeout and the memory
    system's access methods are bound when the mechanism is built.
    """

    flag_bytes = 0  # synchronization is counter-based; no per-slot flags

    def __init__(self, machine) -> None:
        super().__init__(machine)
        cfg = machine.config.syncopti
        self._stream_addr_latency = cfg.stream_addr_latency
        self._partial_line_timeout = cfg.partial_line_timeout
        mem = machine.mem
        self._ozq = mem.ozq
        self._store = mem.store
        self._stream_load = mem.stream_load
        self._forward = mem.forward_line
        self._control_ack = mem.control_ack

    # ------------------------------------------------------------------

    def produce(self, core, inst: DynInst) -> Generator:
        ch = self._channels.get(inst.queue)
        if ch is None:
            ch = self.machine.channel(inst.queue)
        layout = ch.layout
        depth = layout.depth
        item = ch.n_produced
        ch.n_produced = item + 1
        slot = item % depth

        # The produce instruction issues in-order (waiting on its source
        # operand) and occupies one memory-port slot; its stream address is
        # generated in parallel with the L1 bypass.
        issue = core.issue_comm_slot(inst)
        core.retire(1, True)
        t = issue + self._stream_addr_latency

        # Occupancy check at the L2 controller.  On a full queue the produce
        # sits dormant in the OzQ until a counter update frees a line.
        if item >= depth:
            gate = item - depth
            freed = ch.freed
            if len(freed) <= gate:
                yield from self.wait_for_len(
                    core, freed, gate, reason="full", queue_id=layout.queue_id
                )
            free_t = freed[gate]
            if free_t > t:
                core.stats.queue_full_stall += free_t - t
                core.stats.ozq_backpressure_events += 1
                ozq = self._ozq[core.core_id]
                entry = ozq.begin_entry(t)
                ozq.end_entry(entry, free_t)
                core.stall_until(free_t, component="PreL2")
                t = max(t, core.now)

        # Write the item into the backing line in the producer's L2.
        res = self._store(core.core_id, layout.data_addrs[slot], t, True)
        core.stats.charge("PreL2", res.prel2_wait)
        complete = res.complete
        if complete > core.horizon:
            core.horizon = complete
        ch.store_complete.append(complete)

        # Locality-enhanced write-forward: only once the line is full.
        qlu = layout.qlu
        if slot % qlu == qlu - 1:
            self._forward_line(core, ch, item, slot, complete)
        return None

    def _forward_line(self, core, ch: QueueChannel, item: int, slot: int, at: float) -> None:
        """Push the completed line to the consumer; publish its items."""
        layout = ch.layout
        line = slot // layout.qlu
        arrival = self._forward(
            ch.producer_core, ch.consumer_core, layout.line_addr(line), at, True, False
        )
        if arrival is None:
            # The forward was never delivered: items stay unpublished and
            # the consumer's partial-line timeout elicits them on demand.
            return
        ch.record_forward(line, arrival)
        core.stats.lines_forwarded += 1
        # All stored-but-unpublished items up to `item` become visible when
        # the line lands (the forward *is* the consumer's counter update).
        while len(ch.produced) <= item:
            ch.record_produced(arrival)
        self._fill_stream_cache(ch, slot, arrival)

    def _fill_stream_cache(self, ch: QueueChannel, last_slot: int, arrival: float) -> None:
        """Hook for the stream-cache variant (no-op in base SYNCOPTI)."""

    # ------------------------------------------------------------------

    def consume(self, core, inst: DynInst) -> Generator:
        ch = self._channels.get(inst.queue)
        if ch is None:
            ch = self.machine.channel(inst.queue)
        layout = ch.layout
        item = ch.n_consumed
        ch.n_consumed = item + 1

        issue = core.issue_comm_slot(inst)
        core.retire(1, True)
        t_sync = issue + self._stream_addr_latency

        # Wait for the item to become visible: normally via its line's
        # write-forward; on timeout via a demand fetch (partial lines).
        produced = ch.produced
        if len(produced) > item:
            ready, mix = self._visible_item(core, ch, item, t_sync)
        else:
            status = yield from self.wait_for_len(
                core, produced, item, deadline=t_sync + self._partial_line_timeout,
                reason="empty", queue_id=layout.queue_id,
            )
            if status == "ok":
                ready, mix = self._visible_item(core, ch, item, t_sync)
            else:
                ready, mix = yield from self._partial_line_item(core, ch, item, t_sync)
        if inst.dest is not None:
            core.scoreboard.define(inst.dest, ready, mix)
        if ready > core.horizon:
            core.horizon = ready

        # Bulk ACK: last item on the line frees all its slots at once.
        qlu = layout.qlu
        if item % layout.depth % qlu == qlu - 1 or ch.n_consumed == ch.n_produced == len(
            ch.store_complete
        ):
            self._bulk_ack(core, ch, item, ready)
        return None

    def _visible_item(self, core, ch: QueueChannel, item: int, t_sync: float):
        """Read a published item through the L2; returns (ready, mix)."""
        avail = ch.produced[item]
        if avail > t_sync:
            wait = avail - t_sync
            at = avail
        else:
            wait = 0.0
            at = t_sync
        core.stats.queue_empty_stall += wait
        layout = ch.layout
        res = self._stream_load(core.core_id, layout.data_addrs[item % layout.depth], at)
        mix = res.breakdown
        waited = int(wait)
        mix.prel2 += waited
        mix.total += waited
        return res.complete, mix

    def _partial_line_item(self, core, ch: QueueChannel, item: int, t_sync: float):
        """Timeout: elicit a writeback of the partial line from the producer."""
        store_complete = ch.store_complete
        layout = ch.layout
        if len(store_complete) <= item:
            yield from self.wait_for_len(
                core, store_complete, item,
                reason="partial-line", queue_id=layout.queue_id,
            )
        stored = store_complete[item]
        t0 = max(t_sync + self._partial_line_timeout, stored)
        core.stats.queue_empty_stall += t0 - t_sync
        res = self._stream_load(core.core_id, layout.data_addrs[item % layout.depth], t0)
        # This item (and nothing beyond it) is now visible.
        while len(ch.produced) <= item:
            ch.record_produced(res.complete)
        mix = res.breakdown
        mix.prel2 += int(t0 - t_sync)
        mix.total += int(t0 - t_sync)
        return res.complete, mix

    def _bulk_ack(self, core, ch: QueueChannel, item: int, at: float) -> None:
        """One bus message updates the producer's occupancy counters."""
        done = self._control_ack(ch.consumer_core, at)
        missing = (item + 1) - len(ch.freed)
        if missing > 0:
            ch.record_freed_bulk(missing, done)

    # ------------------------------------------------------------------

    def on_streaming_eviction(self, core_id: int, line_addr: int, at: float) -> None:
        """An evicted streaming line flushes its occupancy on the bus."""
        self._control_ack(core_id, at)
