"""HEAVYWT: dedicated distributed backing store + dedicated network (§4.1).

The performance-no-object design point: single-instruction produce/consume,
a dedicated distributed queue store located at the consumer core (servicing
4 concurrent operations per cycle, 1-cycle consume-to-use), occupancy
counters replicated at both endpoints, and a new dedicated pipelined
interconnect — the synchronization-array / Raw scalar-operand-network class
of hardware.  Queue traffic never touches the memory subsystem, so its L2 /
BUS / L3 / MEM components are zero by construction; its costs are die area
and the OS burden of context-switching all of this architectural state.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import Generator

from repro.core.interconnect import DedicatedInterconnect
from repro.core.mechanism import CommMechanism, register_mechanism
from repro.sim.isa import DynInst
from repro.sim.resources import UnitPool
from repro.sim.stats import LatencyBreakdown


@register_mechanism("heavywt")
class HeavyWeightMechanism(CommMechanism):
    """Dedicated-store, dedicated-network streaming support.

    Like SYNCOPTI, each comm op reads its full-queue gate ``item - depth``
    off the layout and creates a :meth:`wait_for_len` generator only when
    it must block; a consume books its dedicated-store port in place on
    the pool's free-at heap, as :meth:`UnitPool.acquire` would.
    """

    flag_bytes = 0

    def __init__(self, machine) -> None:
        super().__init__(machine)
        ded = machine.config.dedicated
        self.network = DedicatedInterconnect(ded.transit_delay)
        #: Per-core dedicated-store ports (4 concurrent ops per cycle).
        self._store_ports = [
            UnitPool(ded.ops_per_cycle, name=f"sa-ports-{c}")
            for c in range(machine.config.n_cores)
        ]
        self._consume_to_use = ded.consume_to_use

    # ------------------------------------------------------------------

    def produce(self, core, inst: DynInst) -> Generator:
        ch = self._channels.get(inst.queue)
        if ch is None:
            ch = self.machine.channel(inst.queue)
        item = ch.n_produced
        ch.n_produced = item + 1

        issue = core.issue_comm_slot(inst)
        core.retire(1, True)
        t = issue

        # Local occupancy counter: block the pipeline on a full queue until
        # the consumer's ACK (carried on the dedicated network) arrives.
        depth = ch.layout.depth
        if item >= depth:
            gate = item - depth
            freed = ch.freed
            if len(freed) <= gate:
                yield from self.wait_for_len(
                    core, freed, gate, reason="full", queue_id=ch.layout.queue_id
                )
            free_t = freed[gate]
            if free_t > t:
                core.stats.queue_full_stall += free_t - t
                core.stall_until(free_t, component="PreL2")
                t = free_t

        # Ship the operand to the consumer-side dedicated store.  Write
        # ports at the store are provisioned for the network's injection
        # rate (≤1 operand/cycle/channel vs 4 ops/cycle), so arrivals never
        # queue; only consume-side reads contend for ports.
        arrival = self.network.send(ch.producer_core, ch.consumer_core, t)
        ch.record_produced(arrival)
        ch.store_complete.append(arrival)
        if arrival > core.horizon:
            core.horizon = arrival
        return None

    # ------------------------------------------------------------------

    def consume(self, core, inst: DynInst) -> Generator:
        ch = self._channels.get(inst.queue)
        if ch is None:
            ch = self.machine.channel(inst.queue)
        item = ch.n_consumed
        ch.n_consumed = item + 1

        issue = core.issue_comm_slot(inst)
        core.retire(1, True)

        produced = ch.produced
        if len(produced) <= item:
            yield from self.wait_for_len(
                core, produced, item, reason="empty", queue_id=ch.layout.queue_id
            )
        avail = produced[item]
        if avail > issue:
            wait = avail - issue
            at = avail
        else:
            wait = 0.0
            at = issue
        core.stats.queue_empty_stall += wait

        # Read from the local dedicated store: 1-cycle consume-to-use.
        ports = self._store_ports[core.core_id]
        free_at = ports._free_at
        first = free_at[0]
        grant = first if first > at else at
        heapreplace(free_at, grant + 1.0)
        ports.grants += 1
        ports.busy_cycles += 1.0
        ready = grant + self._consume_to_use
        if inst.dest is not None:
            core.scoreboard.define(
                inst.dest, ready, LatencyBreakdown(int(ready - issue), 0, 0, 0, 0, int(wait))
            )
        if ready > core.horizon:
            core.horizon = ready

        # Occupancy ACK back to the producer over the dedicated network.
        freed_visible = self.network.send(ch.consumer_core, ch.producer_core, ready)
        ch.record_freed(freed_visible)
        return None
