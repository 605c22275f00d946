"""The CMP memory hierarchy: private L1/L2, shared snoop bus, shared L3, DRAM.

This module is the timing+functional orchestrator.  Every demand access walks
the same path the paper's baseline machine implements:

``core → L1D (write-through) → private L2 (write-back, OzQ) → shared
split-transaction bus (snoop write-invalidate) → {remote L2 cache-to-cache |
shared L3 | main memory}``

Each access returns an :class:`AccessResult` carrying the completion time and
a :class:`~repro.sim.stats.LatencyBreakdown` that the core model uses to
attribute exposed stall cycles to the L2/BUS/L3/MEM components of the paper's
figures.

The hierarchy also implements the producer-initiated **write-forwarding**
primitive used by MEMOPTI and SYNCOPTI (Section 3.5.1): pushing a finished
queue line from the producer's L2 into the consumer's L2 (never into L1), and
the small control messages (occupancy ACKs, upgrades) those designs put on
the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Callable, List, Optional

from repro.core.queue_model import queue_of_addr
from repro.mem.bus import SharedBus
from repro.mem.cache import CacheArray, LineState
from repro.mem.memory import MainMemory
from repro.mem.ozq import OzQ
from repro.sim.config import MachineConfig
from repro.sim.stats import LatencyBreakdown

_MODIFIED = LineState.MODIFIED
_EXCLUSIVE = LineState.EXCLUSIVE
_SHARED = LineState.SHARED
_INVALID = LineState.INVALID
_CONTROL_BYTES = SharedBus.CONTROL_BYTES


@dataclass(slots=True, init=False)
class AccessResult:
    """Outcome of one memory access.

    Attributes:
        complete: Time the requested data is available to the core (loads) or
            the store is globally visible (stores).
        breakdown: Component attribution of the access latency.
        level: Where the access was satisfied: "L1", "L2", "remote-L2",
            "L3", or "MEM".
        prel2_wait: OzQ backpressure delay suffered before entering the L2,
            charged to the PreL2 component by the core.
        ordered: Time the access is *ordered* at the L2 controller.  Memory
            fences wait for ordering, not global visibility: a store is
            ordered once the L2 accepts it, even while its ownership request
            is still in flight (same-line flag/data pairs are ordered by the
            single RFO that acquires the line).  A non-positive value means
            "when it completes".
    """

    complete: float
    breakdown: LatencyBreakdown
    level: str
    prel2_wait: float = 0.0
    ordered: float = 0.0

    def __init__(
        self,
        complete: float,
        breakdown: LatencyBreakdown,
        level: str,
        prel2_wait: float = 0.0,
        ordered: float = 0.0,
    ) -> None:
        self.complete = complete
        self.breakdown = breakdown
        self.level = level
        self.prel2_wait = prel2_wait
        self.ordered = complete if ordered <= 0.0 else ordered


class MemorySystem:
    """Snoop-coherent two-level private + shared-L3 memory system.

    The latencies, line sizes, set counts and L1-lines-per-L2-line ratio
    every access reads are bound once, when the system is built, and so are
    each core's L2-port pool, OzQ entry pool and cache set tables.  The
    access paths grant ports and two-phase OzQ entries in place on those
    pools' free-at heaps — updating ``grants``, ``busy_cycles`` and
    ``_open_grants`` and the OzQ's backpressure counters exactly as
    :meth:`UnitPool.acquire` / ``begin`` / ``end`` and
    :meth:`OzQ.begin_entry` do — and look lines up, touch LRU order and
    invalidate by walking the set tables directly, with the hit/miss
    counting of :meth:`CacheArray.lookup`.  Records are built positionally
    — ``LatencyBreakdown(total, l2, bus, l3, mem)`` and
    ``AccessResult(complete, breakdown, level, prel2_wait, ordered)`` —
    because keyword construction doubles their cost.
    """

    def __init__(self, config: MachineConfig, trace=None) -> None:
        config.validate()
        self.config = config
        self.n_cores = config.n_cores
        self.l1d: List[CacheArray] = [
            CacheArray(config.l1d, name=f"L1D{c}") for c in range(self.n_cores)
        ]
        self.l2: List[CacheArray] = [
            CacheArray(config.l2, name=f"L2-{c}") for c in range(self.n_cores)
        ]
        self.l3 = CacheArray(config.l3, name="L3")
        #: The shared fault plan (None = happy path); hooks below and in the
        #: bus consult it so the mechanisms themselves stay fault-oblivious.
        self.faults = config.faults
        #: Optional trace sink shared with the owning machine; ``None`` keeps
        #: every hierarchy hook to a single branch (zero-overhead contract).
        self.trace = trace
        self.bus = SharedBus(config.bus, faults=config.faults, trace=trace)
        self.ozq: List[OzQ] = [
            OzQ(config.ozq_depth, config.l2_ports, config.recirculation_interval)
            for _ in range(self.n_cores)
        ]
        self.dram = MainMemory(config.main_memory_latency)
        #: Callback fired when a streaming line is evicted from an L2
        #: (SYNCOPTI uses this to flush occupancy counts onto the bus).
        self.on_streaming_eviction: Optional[Callable[[int, int, float], None]] = None
        # Counters used by tests and the experiment reports.
        self.loads = 0
        self.stores = 0
        self.forwards = 0
        self.dropped_forwards = 0
        self.cache_to_cache_transfers = 0
        self.upgrades = 0
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._l3_latency = config.l3.latency
        self._l1_line_bytes = config.l1d.line_bytes
        self._l2_line_bytes = config.l2.line_bytes
        self._l1_per_l2 = config.l2.line_bytes // config.l1d.line_bytes
        self._l1_n_sets = config.l1d.n_sets
        self._l2_n_sets = config.l2.n_sets
        #: Per-core L2-port and OzQ entry pools, and L1/L2 set tables.
        self._l2_ports = [ozq.ports for ozq in self.ozq]
        self._ozq_entries = [ozq._entries for ozq in self.ozq]
        self._l1_sets = [l1._sets for l1 in self.l1d]
        self._l2_sets = [l2._sets for l2 in self.l2]

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def l2_line(self, addr: int) -> int:
        return addr // self._l2_line_bytes

    def _invalidate_l1(self, core: int, l2_line: int) -> None:
        sets = self._l1_sets[core]
        n_sets = self._l1_n_sets
        ratio = self._l1_per_l2
        base = l2_line * ratio
        for l1_line in range(base, base + ratio):
            sets[l1_line % n_sets].pop(l1_line, None)

    # ------------------------------------------------------------------
    # Demand loads
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, at: float, streaming: bool = False) -> AccessResult:
        """Service a demand load issued by ``core`` at time ``at``."""
        self.loads += 1
        l1_line = addr // self._l1_line_bytes
        cset = self._l1_sets[core][l1_line % self._l1_n_sets]
        hit = cset.get(l1_line)
        if hit is None or hit.state is _INVALID:
            self.l1d[core].misses += 1
        else:
            cset.move_to_end(l1_line)
            self.l1d[core].hits += 1
            if hit.ready_at <= at:
                lat = self._l1_latency
                return AccessResult(at + lat, LatencyBreakdown(lat), "L1")
        return self._l2_load(core, addr, at, streaming, not streaming)

    def _l2_load(
        self, core: int, addr: int, at: float, streaming: bool, fill_l1: bool
    ) -> AccessResult:
        """L2-and-below load path (also used by produce/consume accesses)."""
        l2_lat = self._l2_latency
        port_req = at + self._l1_latency  # L1 miss detection
        ports = self._l2_ports[core]
        free_at = ports._free_at
        first = free_at[0]
        port = first if first > port_req else port_req
        heapreplace(free_at, port + 1.0)
        ports.grants += 1
        ports.busy_cycles += 1.0
        port_wait = port - port_req
        line = addr // self._l2_line_bytes
        cset = self._l2_sets[core][line % self._l2_n_sets]
        cached = cset.get(line)
        if cached is not None and cached.state is not _INVALID:
            cset.move_to_end(line)
            self.l2[core].hits += 1
            # Hit — possibly on a line whose fill (write-forward) is in flight.
            l2_done = port + l2_lat
            ready = cached.ready_at + l2_lat
            if l2_done >= ready:
                ready = l2_done
            if fill_l1:
                self.l1d[core].install(addr // self._l1_line_bytes, _SHARED)
            if self.trace is not None:
                self.trace.emit(
                    "mem.access", at, core=core, dur=ready - at, addr=addr, level="L2", op="load"
                )
            return AccessResult(
                ready,
                LatencyBreakdown(
                    int(ready - at), int(l2_lat + port_wait), int(ready - l2_done)
                ),
                "L2",
            )
        self.l2[core].misses += 1
        # L2 miss: an OzQ entry is held for the duration of the service,
        # claimed once the miss is detected.
        ozq = self.ozq[core]
        entries = self._ozq_entries[core]
        entry_free = entries._free_at
        first = heappop(entry_free)
        entry = first if first > port else port
        entries.grants += 1
        entries._open_grants += 1
        if entry > port:
            ozq.backpressure_events += 1
            ozq.backpressure_cycles += entry - port
        prel2_wait = entry - port
        t = entry + l2_lat  # tag check / miss detect
        complete, bd, level = self._miss_service(core, line, t, False, streaming)
        entries._open_grants -= 1
        if complete > entry:
            heappush(entry_free, complete)
            entries.busy_cycles += complete - entry
        else:
            heappush(entry_free, entry)
        if fill_l1:
            self.l1d[core].install(addr // self._l1_line_bytes, _SHARED)
        bd.l2 += int(l2_lat + port_wait)
        bd.prel2 += int(prel2_wait)
        bd.total = int(complete - at)
        if self.trace is not None:
            self.trace.emit(
                "mem.access", at, core=core, dur=complete - at, addr=addr, level=level, op="load"
            )
        return AccessResult(complete, bd, level, prel2_wait)

    # ------------------------------------------------------------------
    # Demand stores
    # ------------------------------------------------------------------

    def store(self, core: int, addr: int, at: float, streaming: bool = False) -> AccessResult:
        """Service a store; completion is global visibility (M state + write).

        L1 is write-through/write-no-allocate, so every store takes an L2
        port.  The core treats stores as non-blocking unless a fence or a
        flag-visibility dependence exposes the completion time.
        """
        self.stores += 1
        l2_lat = self._l2_latency
        port_req = at + self._l1_latency
        ports = self._l2_ports[core]
        free_at = ports._free_at
        first = free_at[0]
        port = first if first > port_req else port_req
        heapreplace(free_at, port + 1.0)
        ports.grants += 1
        ports.busy_cycles += 1.0
        port_wait = port - port_req
        line = addr // self._l2_line_bytes
        cset = self._l2_sets[core][line % self._l2_n_sets]
        cached = cset.get(line)
        prel2_wait = ordered = 0.0
        if cached is not None and cached.state is not _INVALID:
            cset.move_to_end(line)
            self.l2[core].hits += 1
            state = cached.state
            if state is _MODIFIED or state is _EXCLUSIVE:
                cached.state = _MODIFIED
                if streaming:
                    cached.streaming = True
                complete = port + l2_lat
                if cached.ready_at > complete:
                    complete = cached.ready_at
                bd = LatencyBreakdown(int(complete - at), int(l2_lat + port_wait))
                level = traced_level = "L2"
            else:
                # SHARED — upgrade: invalidate remote sharers with a
                # control message.
                self.upgrades += 1
                ordered = port + l2_lat
                tx = self.bus.transfer(ordered, _CONTROL_BYTES, core)
                self._invalidate_remote(core, line)
                cached.state = _MODIFIED
                if streaming:
                    cached.streaming = True
                complete = tx.done_time
                bd = LatencyBreakdown(
                    int(complete - at),
                    int(l2_lat + port_wait),
                    int(complete - tx.request_time),
                )
                level, traced_level = "L2", "upgrade"
        else:
            self.l2[core].misses += 1
            # Store miss: read-for-ownership, holding an OzQ entry.
            ozq = self.ozq[core]
            entries = self._ozq_entries[core]
            entry_free = entries._free_at
            first = heappop(entry_free)
            entry = first if first > port else port
            entries.grants += 1
            entries._open_grants += 1
            if entry > port:
                ozq.backpressure_events += 1
                ozq.backpressure_cycles += entry - port
            prel2_wait = entry - port
            ordered = entry + l2_lat
            complete, bd, level = self._miss_service(core, line, ordered, True, streaming)
            entries._open_grants -= 1
            if complete > entry:
                heappush(entry_free, complete)
                entries.busy_cycles += complete - entry
            else:
                heappush(entry_free, entry)
            bd.l2 += int(l2_lat + port_wait)
            bd.prel2 += int(prel2_wait)
            bd.total = int(complete - at)
            traced_level = level
        # Write-through: refresh the L1 copy only if it is resident (every
        # L1 line is installed ready at 0.0, so only state and LRU change).
        l1_line = addr // self._l1_line_bytes
        l1_set = self._l1_sets[core][l1_line % self._l1_n_sets]
        l1_hit = l1_set.get(l1_line)
        if l1_hit is not None:
            l1_hit.state = _SHARED
            l1_set.move_to_end(l1_line)
        if self.trace is not None:
            self.trace.emit(
                "mem.access", at, core=core, dur=complete - at,
                addr=addr, level=traced_level, op="store",
            )
        return AccessResult(complete, bd, level, prel2_wait, ordered)

    # ------------------------------------------------------------------
    # Miss service via the shared bus
    # ------------------------------------------------------------------

    def _miss_service(
        self, core: int, line: int, at: float, rfo: bool, streaming: bool
    ):
        """Snoop the bus and fetch ``line`` from a remote L2, L3, or memory.

        Returns ``(complete, breakdown, level)``.  The requesting L2's own
        latency contributions are added by the caller.
        """
        bus = self.bus
        line_bytes = self._l2_line_bytes
        # Address/snoop phase: an address-only message.
        req = bus.transfer(at, _CONTROL_BYTES, core)
        t = req.done_time
        bus_cycles = t - req.request_time
        remote_core, remote_line = self._find_remote_owner(core, line)
        if remote_line is not None:
            self.cache_to_cache_transfers += 1
            # Remote L2 services the snoop: port + array access, then the
            # line crosses the shared bus (cache-to-cache transfer).
            ports = self._l2_ports[remote_core]
            free_at = ports._free_at
            first = free_at[0]
            grant = first if first > t else t
            heapreplace(free_at, grant + 1.0)
            ports.grants += 1
            ports.busy_cycles += 1.0
            ready = grant + self._l2_latency
            if remote_line.ready_at > ready:
                ready = remote_line.ready_at
            data = bus.transfer(ready, line_bytes, remote_core)
            complete = data.done_time
            bus_cycles += complete - data.request_time
            if rfo:
                del self._l2_sets[remote_core][line % self._l2_n_sets][line]
                self._invalidate_l1(remote_core, line)
            else:
                remote_line.state = _SHARED
            # Dirty data also refreshes the shared L3 (writeback-on-transfer).
            self.l3.install(line, _SHARED)
            self._install_l2(core, line, rfo, complete, streaming, shared=not rfo)
            return complete, LatencyBreakdown(
                0, int(ready - t), int(bus_cycles)
            ), "remote-L2"
        # Invalidate stale SHARED copies on an RFO even with no owner.
        if rfo:
            self._invalidate_remote(core, line)
        l3_lat = self._l3_latency
        l3_line = self.l3.lookup(line)
        if l3_line is not None and l3_line.ready_at <= t:
            data = bus.transfer(t + l3_lat, line_bytes, core)
            complete = data.done_time
            bus_cycles += complete - data.request_time
            self._install_l2(core, line, rfo, complete, streaming, shared=False)
            return complete, LatencyBreakdown(0, 0, int(bus_cycles), l3_lat), "L3"
        # Main memory.
        ready = self.dram.access(line, t + l3_lat)
        data = bus.transfer(ready, line_bytes, core)
        complete = data.done_time
        bus_cycles += complete - data.request_time
        self.l3.install(line, _SHARED)
        self._install_l2(core, line, rfo, complete, streaming, shared=False)
        return complete, LatencyBreakdown(
            0, 0, int(bus_cycles), l3_lat, int(ready - (t + l3_lat))
        ), "MEM"

    def _find_remote_owner(self, core: int, line: int):
        """``(core, line)`` of a remote L2 holding ``line`` in M or E state,
        or ``(None, None)``."""
        index = line % self._l2_n_sets
        for other, sets in enumerate(self._l2_sets):
            if other != core:
                cached = sets[index].get(line)
                if cached is not None:
                    state = cached.state
                    if state is _MODIFIED or state is _EXCLUSIVE:
                        return other, cached
        return None, None

    def _invalidate_remote(self, core: int, line: int) -> None:
        index = line % self._l2_n_sets
        for other, sets in enumerate(self._l2_sets):
            if other != core and sets[index].pop(line, None) is not None:
                self._invalidate_l1(other, line)

    def _install_l2(
        self, core: int, line: int, rfo: bool, ready: float, streaming: bool, shared: bool
    ) -> None:
        if rfo:
            state = _MODIFIED
        else:
            state = _SHARED if shared else _EXCLUSIVE
        victim = self.l2[core].install(line, state, ready, streaming)
        if victim is not None:
            self._handle_victim(core, victim, ready)

    def _handle_victim(self, core: int, victim, at: float) -> None:
        """Write back and report a line an L2 install evicted."""
        self._invalidate_l1(core, victim.line_addr)
        if victim.state is _MODIFIED:
            # Writeback occupies the bus but is off the requester's critical path.
            self.bus.transfer(at, self._l2_line_bytes, core)
            self.l3.install(victim.line_addr, _SHARED)
        if victim.streaming and self.on_streaming_eviction is not None:
            self.on_streaming_eviction(core, victim.line_addr, at)

    # ------------------------------------------------------------------
    # Streaming support primitives
    # ------------------------------------------------------------------

    def forward_line(
        self,
        src: int,
        dst: int,
        addr: int,
        at: float,
        release_src: bool = False,
        contend_ports: bool = True,
    ) -> Optional[float]:
        """Producer-initiated write-forward of a full queue line (§3.5.1).

        Pushes the L2 line containing ``addr`` from ``src``'s L2 into
        ``dst``'s L2 (never into L1), returning the arrival time.  The push
        occupies an OzQ entry and L2 ports at the source; while it waits for
        the bus it recirculates, churning source ports — the behaviour that
        makes MEMOPTI lose to EXISTING under port pressure (Section 4.4).

        Fault injection: an active plan may delay the delivery (arrival
        shifts later) or drop it entirely — the push still costs the source
        its OzQ/port/bus time, but nothing is installed at the destination,
        the source keeps ownership, and ``None`` is returned.  Callers treat
        ``None`` as "this line never arrived" and fall back to their demand
        paths (SYNCOPTI's partial-line timeout, MEMOPTI's coherence miss).

        Args:
            release_src: Invalidate the source copy (SYNCOPTI's ownership
                hand-off) instead of downgrading it to SHARED (MEMOPTI).
            contend_ports: Model source-side recirculation while waiting.
        """
        self.forwards += 1
        line = addr // self._l2_line_bytes
        ozq = self.ozq[src]
        # The push holds an OzQ entry from ``at`` until it lands, and takes
        # one source L2 port once the entry is granted.
        entries = self._ozq_entries[src]
        entry_free = entries._free_at
        first = heappop(entry_free)
        entry = first if first > at else at
        entries.grants += 1
        entries._open_grants += 1
        if entry > at:
            ozq.backpressure_events += 1
            ozq.backpressure_cycles += entry - at
        ports = self._l2_ports[src]
        free_at = ports._free_at
        first = free_at[0]
        port = first if first > entry else entry
        heapreplace(free_at, port + 1.0)
        ports.grants += 1
        ports.busy_cycles += 1.0
        ready = port + self._l2_latency
        # The push rides the writeback path: low bus priority, so it fills
        # idle bandwidth instead of stalling demand traffic — the cost that
        # matters is source-side (OzQ entry + port churn below).
        tx = self.bus.transfer(ready, self._l2_line_bytes, src, True)
        if contend_ports and tx.grant_time > ready:
            ozq.recirculate(ready, tx.grant_time)
        arrival = tx.done_time
        entries._open_grants -= 1
        if arrival > entry:
            heappush(entry_free, arrival)
            entries.busy_cycles += arrival - entry
        else:
            heappush(entry_free, entry)
        if self.faults is not None:
            dropped, delay = self.faults.forward_fault(
                queue_of_addr(addr), src=src, dst=dst, at=at
            )
            if dropped:
                self.dropped_forwards += 1
                if self.trace is not None:
                    self.trace.emit(
                        "fwd.drop", at, core=src,
                        queue=queue_of_addr(addr), dst=dst, line=line,
                    )
                return None
            arrival += delay
        src_set = self._l2_sets[src][line % self._l2_n_sets]
        src_line = src_set.get(line)
        if src_line is not None:
            if release_src:
                del src_set[line]
                self._invalidate_l1(src, line)
            else:
                src_line.state = _SHARED
        state = _EXCLUSIVE if release_src else _SHARED
        victim = self.l2[dst].install(line, state, arrival, True)
        if victim is not None:
            self._handle_victim(dst, victim, arrival)
        if self.trace is not None:
            self.trace.emit(
                "fwd.line", arrival, core=src,
                queue=queue_of_addr(addr), dst=dst, line=line,
            )
        return arrival

    def holds_line(self, core: int, addr: int) -> bool:
        """Whether ``core``'s L2 has a valid copy of ``addr``'s line.

        Used by the software-queue spin path: a consumer whose L2 already
        holds the line (a write-forward delivered it) observes the flag from
        the local copy instead of demand-refetching across the bus.
        """
        line = addr // self._l2_line_bytes
        cached = self._l2_sets[core][line % self._l2_n_sets].get(line)
        return cached is not None and cached.state is not _INVALID

    def observe_update(self, core: int, addr: int, at: float) -> float:
        """A spinning core observes a remote write to ``addr``'s line.

        The spin load is an outstanding, recirculating transaction; when the
        other core's flag write lands at ``at``, the refetch completes with a
        line transfer installing the line SHARED at the spinner.  Returns the
        line-arrival time (the flag *value* is observable earlier, via the
        snoop round the caller charges separately).

        If the spinner's L2 already holds a valid copy of the line — a
        write-forward delivered it (§3.5.1) — no demand transfer crosses the
        bus: the update is observed once the (possibly in-flight) local fill
        lands.  This is MEMOPTI's stated consumer-side benefit; without it
        every forward would pay its push *and* a redundant refetch.
        """
        line = addr // self._l2_line_bytes
        cached = self._l2_sets[core][line % self._l2_n_sets].get(line)
        if cached is not None and cached.state is not _INVALID:
            cached.streaming = True
            ready = cached.ready_at
            return ready if ready > at else at
        done = self.bus.transfer(at, self._l2_line_bytes, core).done_time
        owner = self._find_remote_owner(core, line)[1]
        if owner is not None:
            owner.state = _SHARED
        victim = self.l2[core].install(line, _SHARED, done, True)
        if victim is not None:
            self._handle_victim(core, victim, done)
        return done

    def stream_load(self, core: int, addr: int, at: float) -> AccessResult:
        """L2-direct load used by SYNCOPTI consume instructions.

        Stream accesses bypass the L1 entirely (queue data is never cached
        there) — the consume's stream address logic hands the access straight
        to the L2, where synchronization counters live.
        """
        self.loads += 1
        return self._l2_load(core, addr, at, True, False)

    def control_ack(self, core: int, at: float) -> float:
        """Small bus message (occupancy-counter update / bulk ACK).

        Fault injection: ACK_DELAY rules push the message's issue time back,
        modeling a slow counter-update path (SYNCOPTI's occupancy ACKs).
        """
        if self.faults is not None:
            at += self.faults.ack_delay(core, at)
        return self.bus.transfer(at, _CONTROL_BYTES, core).done_time
