"""Specialised memory access paths ≡ the original per-call memory system.

:class:`MemorySystem` grants L2 ports and two-phase OzQ entries in place on
pools bound when it is built, and walks the cache set tables directly.  The
reference here is the original memory system, kept verbatim: every grant
through :meth:`OzQ.acquire_port` / ``begin_entry`` / ``end_entry`` (and so
:class:`UnitPool`), every lookup through :meth:`CacheArray.lookup` /
``probe`` / ``invalidate`` / ``downgrade``, every address message through
:meth:`SharedBus.control_message`.  Random two-core access sequences over
tiny caches and a handful of lines — evictions and writebacks, remote-L2
transfers, upgrades, RFO invalidations, OzQ backpressure, recirculation —
mixing loads, stores, stream loads, write-forwards (both ownership and both
port-contention modes), observed updates and control ACKs, with and without
a fault plan that drops or delays forwards, must return equal results and
leave both systems in the same state after every access: caches in LRU
order with their counters, OzQ pools and counters, the bus calendar and
counters, DRAM banks, the memory counters, evicted-streaming callbacks,
fault injections and trace events.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queue_model import QUEUE_REGION_BASE, queue_of_addr
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.mem.cache import LineState
from repro.mem.hierarchy import AccessResult, MemorySystem
from repro.sim.config import CacheConfig, baseline_config
from repro.sim.stats import LatencyBreakdown
from repro.trace.buffer import TraceBuffer, TraceConfig

_MODIFIED = LineState.MODIFIED
_EXCLUSIVE = LineState.EXCLUSIVE
_SHARED = LineState.SHARED
_INVALID = LineState.INVALID


class ReferenceMemory(MemorySystem):
    """The original access paths: one method call per grant and lookup."""

    def _invalidate_l1(self, core: int, l2_line: int) -> None:
        l1 = self.l1d[core]
        ratio = self._l1_per_l2
        base = l2_line * ratio
        for l1_line in range(base, base + ratio):
            l1.invalidate(l1_line)

    def load(self, core: int, addr: int, at: float, streaming: bool = False) -> AccessResult:
        self.loads += 1
        hit = self.l1d[core].lookup(addr // self._l1_line_bytes)
        if hit is not None and hit.ready_at <= at:
            lat = self._l1_latency
            return AccessResult(at + lat, LatencyBreakdown(lat), "L1")
        return self._l2_load(core, addr, at, streaming, not streaming)

    def _l2_load(
        self, core: int, addr: int, at: float, streaming: bool, fill_l1: bool
    ) -> AccessResult:
        ozq = self.ozq[core]
        l2_lat = self._l2_latency
        port_req = at + self._l1_latency  # L1 miss detection
        port = ozq.acquire_port(port_req, busy=1.0)
        port_wait = port - port_req
        line = addr // self._l2_line_bytes
        cached = self.l2[core].lookup(line)
        if cached is not None:
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
        # L2 miss: allocate an OzQ entry for the duration of the service.
        entry = ozq.begin_entry(port)  # entry claimed once the miss is detected
        prel2_wait = entry - port
        t = entry + l2_lat  # tag check / miss detect
        complete, bd, level = self._miss_service(core, line, t, False, streaming)
        ozq.end_entry(entry, complete)
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

    def store(self, core: int, addr: int, at: float, streaming: bool = False) -> AccessResult:
        self.stores += 1
        ozq = self.ozq[core]
        l2_lat = self._l2_latency
        port_req = at + self._l1_latency
        port = ozq.acquire_port(port_req, busy=1.0)
        port_wait = port - port_req
        line = addr // self._l2_line_bytes
        cached = self.l2[core].lookup(line)
        if cached is not None:
            state = cached.state
            if state is _MODIFIED or state is _EXCLUSIVE:
                cached.state = _MODIFIED
                cached.streaming = cached.streaming or streaming
                complete = port + l2_lat
                if cached.ready_at > complete:
                    complete = cached.ready_at
                self._l1_write_update(core, addr)
                if self.trace is not None:
                    self.trace.emit(
                        "mem.access", at, core=core, dur=complete - at,
                        addr=addr, level="L2", op="store",
                    )
                return AccessResult(
                    complete,
                    LatencyBreakdown(int(complete - at), int(l2_lat + port_wait)),
                    "L2",
                )
            if state is _SHARED:
                # Upgrade: invalidate remote sharers with a control message.
                self.upgrades += 1
                ordered = port + l2_lat
                tx = self.bus.control_message(ordered, requester=core)
                self._invalidate_remote(core, line)
                cached.state = _MODIFIED
                cached.streaming = cached.streaming or streaming
                complete = tx.done_time
                self._l1_write_update(core, addr)
                if self.trace is not None:
                    self.trace.emit(
                        "mem.access", at, core=core, dur=complete - at,
                        addr=addr, level="upgrade", op="store",
                    )
                return AccessResult(
                    complete,
                    LatencyBreakdown(
                        int(complete - at),
                        int(l2_lat + port_wait),
                        int(complete - tx.request_time),
                    ),
                    "L2",
                    0.0,
                    ordered,
                )
        # Store miss: read-for-ownership.
        entry = ozq.begin_entry(port)
        prel2_wait = entry - port
        ordered = entry + l2_lat
        complete, bd, level = self._miss_service(core, line, ordered, True, streaming)
        ozq.end_entry(entry, complete)
        self._l1_write_update(core, addr)
        bd.l2 += int(l2_lat + port_wait)
        bd.prel2 += int(prel2_wait)
        bd.total = int(complete - at)
        if self.trace is not None:
            self.trace.emit(
                "mem.access", at, core=core, dur=complete - at, addr=addr, level=level, op="store"
            )
        return AccessResult(complete, bd, level, prel2_wait, ordered)

    def _l1_write_update(self, core: int, addr: int) -> None:
        l1 = self.l1d[core]
        l1_line = addr // self._l1_line_bytes
        if l1.probe(l1_line) is not None:
            l1.install(l1_line, _SHARED)

    def _miss_service(
        self, core: int, line: int, at: float, rfo: bool, streaming: bool
    ):
        bus = self.bus
        line_bytes = self._l2_line_bytes
        # Address/snoop phase.
        req = bus.control_message(at, requester=core)
        t = req.done_time
        bus_cycles = t - req.request_time
        remote = self._find_remote_owner(core, line)
        if remote is not None:
            remote_core, remote_line = remote
            self.cache_to_cache_transfers += 1
            # Remote L2 services the snoop: port + array access, then the
            # line crosses the shared bus (cache-to-cache transfer).
            ready = self.ozq[remote_core].acquire_port(t, busy=1.0) + self._l2_latency
            if remote_line.ready_at > ready:
                ready = remote_line.ready_at
            data = bus.transfer(ready, line_bytes, remote_core)
            complete = data.done_time
            bus_cycles += complete - data.request_time
            if rfo:
                self.l2[remote_core].invalidate(line)
                self._invalidate_l1(remote_core, line)
            else:
                self.l2[remote_core].downgrade(line)
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
        for other, l2 in enumerate(self.l2):
            if other == core:
                continue
            cached = l2.probe(line)
            if cached is not None:
                state = cached.state
                if state is _MODIFIED or state is _EXCLUSIVE:
                    return other, cached
        return None

    def _invalidate_remote(self, core: int, line: int) -> None:
        for other, l2 in enumerate(self.l2):
            if other == core:
                continue
            if l2.invalidate(line) is not None:
                self._invalidate_l1(other, line)

    def _install_l2(
        self, core: int, line: int, rfo: bool, ready: float, streaming: bool, shared: bool
    ) -> None:
        if rfo:
            state = _MODIFIED
        else:
            state = _SHARED if shared else _EXCLUSIVE
        victim = self.l2[core].install(line, state, ready, streaming)
        self._handle_victim(core, victim, ready)

    def _handle_victim(self, core: int, victim, at: float) -> None:
        if victim is None:
            return
        self._invalidate_l1(core, victim.line_addr)
        if victim.state is _MODIFIED:
            # Writeback occupies the bus but is off the requester's critical path.
            self.bus.transfer(at, self._l2_line_bytes, core)
            self.l3.install(victim.line_addr, _SHARED)
        if victim.streaming and self.on_streaming_eviction is not None:
            self.on_streaming_eviction(core, victim.line_addr, at)

    def forward_line(
        self,
        src: int,
        dst: int,
        addr: int,
        at: float,
        release_src: bool = False,
        contend_ports: bool = True,
    ) -> Optional[float]:
        self.forwards += 1
        line = addr // self._l2_line_bytes
        ozq = self.ozq[src]
        entry = ozq.begin_entry(at)
        ready = ozq.acquire_port(entry, busy=1.0) + self._l2_latency
        # The push rides the writeback path: low bus priority, so it fills
        # idle bandwidth instead of stalling demand traffic — the cost that
        # matters is source-side (OzQ entry + port churn below).
        tx = self.bus.transfer(ready, self._l2_line_bytes, src, True)
        if contend_ports and tx.grant_time > ready:
            ozq.recirculate(ready, tx.grant_time)
        arrival = tx.done_time
        ozq.end_entry(entry, arrival)
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
        src_line = self.l2[src].probe(line)
        if src_line is not None:
            if release_src:
                self.l2[src].invalidate(line)
                self._invalidate_l1(src, line)
            else:
                src_line.state = _SHARED
        state = _EXCLUSIVE if release_src else _SHARED
        victim = self.l2[dst].install(line, state, arrival, True)
        self._handle_victim(dst, victim, arrival)
        if self.trace is not None:
            self.trace.emit(
                "fwd.line", arrival, core=src,
                queue=queue_of_addr(addr), dst=dst, line=line,
            )
        return arrival

    def observe_update(self, core: int, addr: int, at: float) -> float:
        line = addr // self._l2_line_bytes
        cached = self.l2[core].probe(line)
        if cached is not None and cached.state is not _INVALID:
            cached.streaming = True
            return max(at, cached.ready_at)
        tx = self.bus.transfer(at, self._l2_line_bytes, core)
        owner = self._find_remote_owner(core, line)
        if owner is not None:
            self.l2[owner[0]].downgrade(line)
        victim = self.l2[core].install(line, _SHARED, tx.done_time, True)
        self._handle_victim(core, victim, tx.done_time)
        return tx.done_time

    def control_ack(self, core: int, at: float) -> float:
        if self.faults is not None:
            at += self.faults.ack_delay(core, at)
        tx = self.bus.control_message(at, requester=core)
        return tx.done_time


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

#: Tiny caches: 2-set L1s, 2-set x 2-way L2s, a 4-set L3; a 2-entry OzQ
#: and one L2 port, so a handful of lines evicts, writes back and queues.
def _config(faults=None, trace=False):
    return baseline_config().copy(
        l1d=CacheConfig(size_bytes=256, assoc=2, line_bytes=64, latency=1, write_back=False),
        l2=CacheConfig(size_bytes=512, assoc=2, line_bytes=128, latency=7),
        l3=CacheConfig(size_bytes=1024, assoc=2, line_bytes=128, latency=13),
        ozq_depth=2,
        l2_ports=1,
        faults=faults,
        trace=TraceConfig() if trace else None,
    )


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=5,
        rules=(
            FaultRule(kind=FaultKind.FORWARD_DROP, magnitude=1.0, probability=0.3),
            FaultRule(kind=FaultKind.FORWARD_DELAY, magnitude=30.0, probability=0.5),
            FaultRule(kind=FaultKind.ACK_DELAY, magnitude=6.0, probability=0.5),
        ),
    ).validate()


def _build(cls, with_faults: bool, traced: bool):
    cfg = _config(_fault_plan() if with_faults else None, traced)
    trace = TraceBuffer(cfg.trace) if traced else None
    if cfg.faults is not None:
        cfg.faults.reset()
        cfg.faults.trace = trace
    mem = cls(cfg, trace=trace)
    evictions = []
    mem.on_streaming_eviction = lambda core, line, at: evictions.append((core, line, at))
    return mem, evictions


def _cache(c):
    return (
        [[(ln.line_addr, ln.state, ln.ready_at, ln.streaming) for ln in s.values()] for s in c._sets],
        c.hits, c.misses, c.evictions, c.writebacks,
    )


def _pool(p):
    return list(p._free_at), p.grants, p.busy_cycles, p._open_grants


def _state(mem):
    bus = mem.bus
    return {
        "l1": [_cache(c) for c in mem.l1d],
        "l2": [_cache(c) for c in mem.l2],
        "l3": _cache(mem.l3),
        "ozq": [
            (_pool(q._entries), _pool(q.ports), q.backpressure_events,
             q.backpressure_cycles, q.recirculations)
            for q in mem.ozq
        ],
        "bus": (
            list(bus.timeline.starts), list(bus.timeline.ends), bus.timeline.prune_before,
            bus.transactions, bus.busy_cycles, dict(bus.grants_by_requester),
        ),
        "dram": ([_pool(b) for b in mem.dram._banks], mem.dram.accesses),
        "counters": (
            mem.loads, mem.stores, mem.forwards, mem.dropped_forwards,
            mem.cache_to_cache_transfers, mem.upgrades,
        ),
        "faults": list(mem.faults.injections) if mem.faults is not None else None,
        "trace": list(mem.trace) if mem.trace is not None else None,
    }


def _apply(mem, op):
    name, core, addr, at = op[:4]
    if name == "load":
        return mem.load(core, addr, at, op[4])
    if name == "store":
        return mem.store(core, addr, at, op[4])
    if name == "stream_load":
        return mem.stream_load(core, addr, at)
    if name == "forward_line":
        return mem.forward_line(core, 1 - core, addr, at, op[4], op[5])
    if name == "observe_update":
        return mem.observe_update(core, addr, at)
    return mem.control_ack(core, at)


def _replay(ops, with_faults: bool, traced: bool):
    """Run ``ops`` on both systems, comparing after every access."""
    mem, mem_evictions = _build(MemorySystem, with_faults, traced)
    ref, ref_evictions = _build(ReferenceMemory, with_faults, traced)
    for op in ops:
        got, want = _apply(mem, op), _apply(ref, op)
        assert got == want, op
        if isinstance(got, AccessResult):
            assert type(got.complete) is type(want.complete)
        assert _state(mem) == _state(ref), op
        assert mem_evictions == ref_evictions, op
    return mem


_LINES = [base + line * 128 for base in (0x4000, QUEUE_REGION_BASE) for line in range(3)]
_addr = st.builds(lambda line, offset: line + offset, st.sampled_from(_LINES), st.sampled_from((0, 8, 64)))
_core = st.integers(0, 1)
_op = st.one_of(
    st.tuples(st.just("load"), _core, _addr, st.booleans()),
    st.tuples(st.just("store"), _core, _addr, st.booleans()),
    st.tuples(st.just("stream_load"), _core, _addr),
    st.tuples(st.just("forward_line"), _core, _addr, st.booleans(), st.booleans()),
    st.tuples(st.just("observe_update"), _core, _addr),
    st.tuples(st.just("control_ack"), _core, st.just(0)),
)


@st.composite
def _sequences(draw):
    """Accesses at a jittered, mostly advancing clock (cores interleave)."""
    clock, ops = 0.0, []
    for body in draw(st.lists(_op, min_size=1, max_size=60)):
        clock = max(0.0, clock + draw(st.integers(-12, 40)) * 0.5)
        ops.append(body[:3] + (clock,) + body[3:])
    return ops


@settings(max_examples=150, deadline=None)
@given(ops=_sequences(), with_faults=st.booleans(), traced=st.booleans())
def test_access_paths_match_the_reference(ops, with_faults, traced):
    _replay(ops, with_faults, traced)


def test_fixed_sequence_reaches_every_path():
    """A hand-built sequence crosses every path the random test compares."""
    data, queue = 0x4000, QUEUE_REGION_BASE
    ops = [
        ("load", 0, data, 0.0, False),            # MEM, then L1 fill
        ("load", 0, data, 200.0, False),          # L1 hit
        ("store", 0, data, 210.0, False),         # L2 hit on E -> M
        ("load", 1, data, 220.0, False),          # remote-L2 (downgrade)
        ("store", 1, data, 400.0, False),         # upgrade: invalidates core 0
        ("store", 0, data, 420.0, False),         # RFO from a remote owner
        ("stream_load", 1, data + 128, 430.0),    # L2 miss to memory
        ("store", 0, queue, 500.0, True),         # streaming line
        ("store", 0, queue, 500.0, True),         # same port: backpressure later
        ("forward_line", 0, queue, 510.0, True, False),
        ("forward_line", 0, queue + 128, 512.0, False, True),
        ("observe_update", 1, queue, 520.0),      # local copy
        ("observe_update", 0, data + 256, 530.0), # refetch across the bus
        ("control_ack", 1, 0, 540.0),
        ("load", 0, data + 512, 541.0, False),    # same set: evictions
        ("store", 0, data + 768, 541.0, False),
        ("store", 0, data + 1024, 541.0, False),  # OzQ full: backpressure
        ("load", 1, data + 256, 542.0, False),
        ("load", 1, data + 1280, 543.0, False),
    ]
    mem = _replay(ops, with_faults=False, traced=True)
    levels = {ev.args["level"] for ev in mem.trace if ev.kind == "mem.access"}
    assert {"L2", "remote-L2", "MEM", "upgrade"} <= levels
    assert mem.upgrades and mem.cache_to_cache_transfers and mem.forwards == 2
    assert sum(c.evictions for c in mem.l2) and sum(c.writebacks for c in mem.l2)
    assert sum(q.backpressure_events for q in mem.ozq)
    assert sum(c.hits for c in mem.l1d)
    faulted = _replay(ops, with_faults=True, traced=False)
    assert faulted.faults.injections
