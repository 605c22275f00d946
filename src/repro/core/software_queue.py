"""EXISTING: shared-memory software queues (Section 3.1.1 / Figure 4).

This is the design point representative of commercial CMPs with no streaming
support.  Produce and consume are ~10-instruction load/store sequences —
6 synchronization instructions (spin flag load, compare, branch, fence, flag
store, mask), 1 data-transfer instruction, and 3 stream-address (head/tail
pointer) update instructions — with a dependence height of 4 (Section 4.3).

Synchronization uses per-slot full/empty condition variables co-located with
the queue data (Figure 5): a producer spins until the tail slot's flag reads
*empty*, stores the datum, then sets the flag; a consumer mirrors this on the
head slot.  Both sides' flag writes make the backing line ping-pong between
the private L2s through the snoop protocol, and every spin iteration flows
through the pipeline and recirculates in the OzQ, occupying L2 ports — the
COMM-OP overheads the paper measures for this design.
"""

from __future__ import annotations

from typing import Generator

from repro.core.mechanism import CommMechanism, register_mechanism
from repro.core.queue_model import QueueChannel
from repro.mem.bus import SharedBus
from repro.sim.isa import DynInst


@register_mechanism("existing")
class SoftwareQueueMechanism(CommMechanism):
    """Software queues over unmodified coherent shared memory."""

    flag_bytes = 8  # 8-byte lock word co-located with each 8-byte datum

    #: Synchronization ALU overhead around the spin load: compare, branch,
    #: mask — with the flag load, fence and flag store this makes the six
    #: synchronization instructions of Section 4.3.
    SYNC_ALU_OPS = 3
    #: Stream-address (head/tail pointer) update: add, compare, select.
    POINTER_ALU_OPS = 3

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._l2_latency = machine.config.l2.latency
        #: Latency for an in-flight spin load to observe the remote update.
        #: While spinning, the flag load recirculates as an outstanding L2
        #: transaction; once the other core's flag write happens, the update
        #: reaches the spinner via a snoop round plus an L2 visit — not a
        #: full fresh line refetch.
        self._observe_delay = (
            machine.mem.bus.end_to_end_cycles(SharedBus.CONTROL_BYTES) + self._l2_latency
        )

    def _spin_until(self, core, flag_addr: int, visible_at: float, first) -> None:
        """Spin on the flag at ``flag_addr`` until it reads updated."""
        core.spin_wait(visible_at, first.breakdown)
        # The observing (final) spin iteration: its in-flight refetch brings
        # the whole line (flag + co-located data) into this L2 — unless a
        # write-forward already delivered the line, in which case the spin
        # load observes the local (possibly in-flight) fill and no snoop
        # round crosses the bus (MEMOPTI's consumer-side win, §3.5.1).
        mem = self.machine.mem
        local = mem.holds_line(core.core_id, flag_addr)
        arrival = mem.observe_update(core.core_id, flag_addr, visible_at)
        core.retire(1, True)
        if local:
            observed = max(arrival, visible_at) + self._l2_latency
        else:
            observed = visible_at + self._observe_delay
        core.stall_until(observed, first.breakdown)

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
        flag = layout.flag_addrs[slot]

        # --- Synchronization: spin until the slot's flag reads empty. ---
        first = core.overhead_load(flag)
        core.overhead_alu(self.SYNC_ALU_OPS, 2)
        if item >= depth:
            gate = item - depth
            freed = ch.freed
            if len(freed) <= gate:
                yield from self.wait_for_len(
                    core, freed, gate, reason="full", queue_id=layout.queue_id
                )
            free_t = freed[gate]
            if free_t > first.complete:
                core.stats.queue_full_stall += free_t - max(core.now, first.complete)
                self._spin_until(core, flag, free_t, first)
            else:
                core.stall_until(first.complete, first.breakdown)
        else:
            core.stall_until(first.complete, first.breakdown)

        # --- Data transfer, ordered before the flag set by a fence.  The
        # store cannot issue before the produced value is ready (in-order
        # core), exposing any in-flight miss feeding it. ---
        if inst.srcs:
            op_ready, reg = core.scoreboard.latest(inst.srcs)
            if op_ready > core.now:
                core.stall_until(op_ready, core.scoreboard.mix_of(reg))
        data = core.overhead_store(layout.data_addrs[slot])
        core.overhead_fence()
        flag_set = core.overhead_store(flag)
        ch.record_produced(flag_set.complete)
        ch.store_complete.append(data.complete)
        self._after_flag_set(core, ch, slot, flag_set.complete)

        # --- Stream address (tail pointer) update. ---
        core.overhead_alu(self.POINTER_ALU_OPS, 2)
        return None

    # Hook for MEMOPTI's write-forwarding.
    def _after_flag_set(
        self, core, ch: QueueChannel, slot: int, at: float
    ) -> None:
        """Called after the producer's flag-set store to ``slot`` completes."""

    # ------------------------------------------------------------------

    def consume(self, core, inst: DynInst) -> Generator:
        ch = self._channels.get(inst.queue)
        if ch is None:
            ch = self.machine.channel(inst.queue)
        layout = ch.layout
        item = ch.n_consumed
        ch.n_consumed = item + 1
        slot = item % layout.depth
        flag = layout.flag_addrs[slot]

        # --- Synchronization: spin until the slot's flag reads full. ---
        first = core.overhead_load(flag)
        core.overhead_alu(self.SYNC_ALU_OPS, 2)
        produced = ch.produced
        if len(produced) <= item:
            yield from self.wait_for_len(
                core, produced, item, reason="empty", queue_id=layout.queue_id
            )
        avail = produced[item]
        if avail > first.complete:
            core.stats.queue_empty_stall += avail - max(core.now, first.complete)
            self._spin_until(core, flag, avail, first)
        else:
            core.stall_until(first.complete, first.breakdown)

        # --- Data transfer: the one load whose value feeds the kernel. ---
        data = core.overhead_load(layout.data_addrs[slot])
        if inst.dest is not None:
            core.scoreboard.define(inst.dest, data.complete, data.breakdown)

        # --- Mark the slot empty (ordered after the data read). ---
        core.overhead_fence()
        clear = core.overhead_store(flag)
        ch.record_freed(clear.complete)

        # --- Stream address (head pointer) update. ---
        core.overhead_alu(self.POINTER_ALU_OPS, 2)
        return None
