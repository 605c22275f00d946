"""Specialised issue path ≡ the original per-call issue model.

:class:`CoreModel.run` issues each instruction through one ``_issue`` call
and completes, defines and retires it inline; the overhead helpers the
communication mechanisms call book their unit-pool grants and retirement in
place.  The reference here is the original core, kept verbatim: every
instruction dispatched through ``_plain``, every grant through
``UnitPool.acquire`` and every retirement through ``retire``.  Random
single-core streams — every non-communication instruction kind, latency
overrides, 0–3 sources, overhead flags, loads and stores that hit and miss,
interleaved with the overhead helpers — must leave both cores in the same
state: identical stats, issue clock, horizon, pending stores and unit-pool
calendars.
"""

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import baseline_config
from repro.sim.core import CoreModel
from repro.sim.isa import DynInst, InstrKind
from repro.sim.machine import Machine
from repro.sim.resources import UnitPool
from repro.sim.stats import LatencyBreakdown


class _ReferenceScoreboard:
    """The original scoreboard: an ALU definition drops the register's mix."""

    def __init__(self) -> None:
        self._ready = {}
        self._mix = {}

    def latest(self, regs) -> Tuple[float, Optional[int]]:
        best_t, best_r = -1.0, None
        ready = self._ready
        for r in regs:
            rt = ready.get(r, 0.0)
            if rt > best_t:
                best_t = rt
                best_r = r
        return (best_t if best_t > 0.0 else 0.0), best_r

    def mix_of(self, reg: Optional[int]) -> Optional[LatencyBreakdown]:
        return self._mix.get(reg)

    def define(self, reg: int, at: float, mix: Optional[LatencyBreakdown] = None) -> None:
        self._ready[reg] = at
        if mix is not None:
            self._mix[reg] = mix
        else:
            self._mix.pop(reg, None)


class ReferenceCore(CoreModel):
    """The original issue model: one method call per rule, per instruction."""

    def __init__(self, core_id: int, machine) -> None:
        super().__init__(core_id, machine)
        self.scoreboard = _ReferenceScoreboard()

    def retire(self, n: int = 1, overhead: bool = False) -> None:
        stats = self.stats
        if overhead:
            stats.comm_instructions += n
        else:
            stats.app_instructions += n
        stats.components["PostL2"] += n * self._commit_cost
        if self.trace is not None:
            self.trace.emit(
                "core.retire", self.t_issue, core=self.core_id,
                n=n, overhead=overhead,
            )

    def overhead_alu(self, n: int, dep_height: int = 1) -> float:
        if n <= 0:
            return self.t_issue
        start = self.t_issue
        comps = self.stats.components
        pace = self._pace
        for _ in range(n):
            floor = self.t_issue + pace
            grant = self.ialu.acquire(floor, busy=1.0)
            comps["COMPUTE"] += pace
            if grant > floor:
                comps["PreL2"] += grant - floor
            self.t_issue = grant
        self.retire(n, overhead=True)
        complete = max(self.t_issue, start + dep_height)
        self.horizon = max(self.horizon, complete)
        return complete

    def overhead_load(self, addr: int, at: Optional[float] = None, streaming: bool = True):
        issue = self._issue_mem_slot(at)
        result = self.machine.mem.load(self.core_id, addr, issue, streaming=streaming)
        self.retire(1, overhead=True)
        self.horizon = max(self.horizon, result.complete)
        return result

    def overhead_store(self, addr: int, at: Optional[float] = None, streaming: bool = True):
        issue = self._issue_mem_slot(at)
        result = self.machine.mem.store(self.core_id, addr, issue, streaming=streaming)
        self.pending_stores.append((result.ordered, result.breakdown))
        self.retire(1, overhead=True)
        self.horizon = max(self.horizon, result.complete)
        return result

    def overhead_fence(self) -> None:
        self._do_fence(overhead=True)

    def _issue_mem_slot(self, at: Optional[float] = None) -> float:
        target = max(self.t_issue + self._pace, at if at is not None else 0.0, self.fence_ready)
        grant = self.mem_ports.acquire(target, busy=1.0)
        comps = self.stats.components
        comps["COMPUTE"] += self._pace
        if grant > target:
            comps["PreL2"] += grant - target
        self.t_issue = grant
        return grant

    def _issue(self, inst: DynInst, pool: UnitPool) -> float:
        stats = self.stats
        comps = stats.components
        pace = self._pace
        floor = self.t_issue + pace
        comps["COMPUTE"] += pace
        fence_ready = self.fence_ready
        start = fence_ready if fence_ready > floor else floor
        if inst.srcs:
            op_ready, reg = self.scoreboard.latest(inst.srcs)
            if op_ready > start:
                mix = self.scoreboard.mix_of(reg)
                if mix is not None:
                    stats.charge_breakdown(mix, op_ready - start)
                else:
                    comps["PreL2"] += op_ready - start
                start = op_ready
        grant = pool.acquire(start, busy=1.0)
        if grant > start:
            comps["PreL2"] += grant - start
        self.t_issue = grant
        return grant

    def _plain(self, inst: DynInst) -> None:
        kind = inst.kind
        if kind is InstrKind.FENCE:
            self._do_fence(overhead=inst.is_overhead)
            return
        if kind is InstrKind.LOAD:
            issue = self._issue(inst, self.mem_ports)
            result = self.machine.mem.load(
                self.core_id, inst.addr, issue, streaming=False
            )
            if inst.dest is not None:
                self.scoreboard.define(inst.dest, result.complete, result.breakdown)
            if result.complete > self.horizon:
                self.horizon = result.complete
        elif kind is InstrKind.STORE:
            issue = self._issue(inst, self.mem_ports)
            result = self.machine.mem.store(
                self.core_id, inst.addr, issue, streaming=False
            )
            self.pending_stores.append((result.ordered, result.breakdown))
            if result.complete > self.horizon:
                self.horizon = result.complete
        elif kind is InstrKind.PREFETCH:
            issue = self._issue(inst, self.mem_ports)
            self.machine.mem.load(self.core_id, inst.addr, issue, streaming=False)
        else:
            if kind is InstrKind.FALU:
                pool = self.falu
            elif kind is InstrKind.BRANCH:
                pool = self.branch
            else:  # IALU, NOP
                pool = self.ialu
            issue = self._issue(inst, pool)
            latency = inst.latency
            complete = issue + (latency if latency is not None else inst.exec_latency())
            if inst.dest is not None:
                self.scoreboard.define(inst.dest, complete)
            if complete > self.horizon:
                self.horizon = complete
        self.retire(1, inst.is_overhead)

    def _do_fence(self, overhead: bool) -> None:
        grant = self.ialu.acquire(self.t_issue + self._pace, busy=1.0)
        self.stats.components["COMPUTE"] += self._pace
        self.t_issue = grant
        if self.pending_stores:
            worst_t, worst_mix = max(self.pending_stores, key=lambda p: p[0])
            if worst_t > self.t_issue:
                self.stats.charge_breakdown(worst_mix, worst_t - self.t_issue)
                self.t_issue = worst_t
            self.pending_stores.clear()
        self.fence_ready = self.t_issue
        self.retire(1, overhead=overhead)


# ----------------------------------------------------------------------
# Random streams
# ----------------------------------------------------------------------

#: Every instruction kind the core issues itself (comm macro-ops go to the
#: mechanism and are covered by the mechanism and golden tests).
PLAIN_KINDS = [k for k in InstrKind if k not in (InstrKind.PRODUCE, InstrKind.CONSUME)]
MEMORY_KINDS = (InstrKind.LOAD, InstrKind.STORE, InstrKind.PREFETCH)

#: A few hot lines (repeat accesses hit in L1/L2, stores find them owned)
#: and a spread of cold ones (misses to L3 and memory).
HOT_ADDRS = [0x1000 + 8 * i for i in range(8)] + [0x1040 + 8 * i for i in range(8)]
addresses = st.one_of(
    st.sampled_from(HOT_ADDRS),
    st.integers(min_value=0, max_value=1 << 16).map(lambda k: 0x10_0000 + 64 * k),
)
registers = st.integers(min_value=1, max_value=6)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(PLAIN_KINDS))
    memory = kind in MEMORY_KINDS
    defines = kind in (InstrKind.IALU, InstrKind.FALU, InstrKind.NOP, InstrKind.LOAD)
    return DynInst(
        kind,
        dest=draw(st.one_of(st.none(), registers)) if defines else None,
        srcs=tuple(draw(st.lists(registers, max_size=3))),
        addr=draw(addresses) if memory else None,
        latency=None if memory else draw(st.one_of(st.none(), st.integers(1, 5))),
        is_overhead=draw(st.booleans()),
    )


#: Overhead-helper calls a mechanism makes between instructions.
helper_calls = st.one_of(
    st.tuples(st.just("alu"), st.integers(0, 12), st.integers(1, 3)),
    st.tuples(st.just("load"), addresses, st.one_of(st.none(), st.floats(0.0, 400.0))),
    st.tuples(st.just("store"), addresses, st.one_of(st.none(), st.floats(0.0, 400.0))),
    st.tuples(st.just("fence")),
)
streams = st.lists(st.one_of(instructions(), helper_calls), max_size=120)


def _call_helper(core: CoreModel, op: tuple):
    name = op[0]
    if name == "alu":
        return core.overhead_alu(op[1], dep_height=op[2])
    if name == "load":
        return core.overhead_load(op[1], at=op[2]).complete
    if name == "store":
        return core.overhead_store(op[1], at=op[2]).complete
    core.overhead_fence()
    return core.t_issue


def _state(core: CoreModel):
    pools = (core.ialu, core.falu, core.branch, core.mem_ports)
    return {
        "stats": core.stats.canonical(),
        "t_issue": core.t_issue,
        "fence_ready": core.fence_ready,
        "horizon": core.horizon,
        "pending_stores": list(core.pending_stores),
        "pools": [(p._free_at, p.grants, p.busy_cycles) for p in pools],
    }


def _run_specialised(stream) -> Tuple[dict, List]:
    machine = Machine(baseline_config(), mechanism="heavywt")
    core = machine.cores[0]
    returned = []

    def program():
        for op in stream:
            if isinstance(op, DynInst):
                yield op
            else:
                returned.append(_call_helper(core, op))

    for _ in core.run(program()):
        pass
    return _state(core), returned


def _run_reference(stream) -> Tuple[dict, List]:
    machine = Machine(baseline_config(), mechanism="heavywt")
    core = ReferenceCore(0, machine)
    returned = []
    for op in stream:
        if isinstance(op, DynInst):
            core._plain(op)
        else:
            returned.append(_call_helper(core, op))
    core._finish()
    return _state(core), returned


@settings(max_examples=150, deadline=None)
@given(streams)
def test_specialised_issue_path_matches_reference_core(stream):
    assert _run_specialised(stream) == _run_reference(stream)


def test_streams_reach_every_kind_and_level():
    """The reference comparison is not vacuous: a fixed stream exercises
    every plain kind, operand and structural stalls, and L1/L2/memory."""
    stream = [
        DynInst(InstrKind.LOAD, dest=1, addr=0x1000),
        DynInst(InstrKind.IALU, dest=2, srcs=(1,)),
        DynInst(InstrKind.LOAD, dest=3, addr=0x1008),
        DynInst(InstrKind.STORE, srcs=(2,), addr=0x1010),
        DynInst(InstrKind.FENCE),
        DynInst(InstrKind.FALU, dest=4, srcs=(3, 2), latency=None),
        DynInst(InstrKind.BRANCH, srcs=(4,), latency=2, is_overhead=True),
        DynInst(InstrKind.PREFETCH, addr=0x20_0000),
        DynInst(InstrKind.NOP),
        ("alu", 3, 2),
        ("load", 0x1000, 50.0),
        ("store", 0x30_0000, None),
        ("fence",),
    ] + [DynInst(InstrKind.FALU, dest=5) for _ in range(6)]
    state, returned = _run_specialised(stream)
    assert (state, returned) == _run_reference(stream)
    comps = state["stats"]["components"]
    assert comps["MEM"] > 0 and comps["PreL2"] > 0 and comps["PostL2"] > 0
    assert state["stats"]["app_instructions"] == 8 + 6
    assert state["stats"]["comm_instructions"] == 1 + 3 + 1 + 1 + 1
