"""In-order multi-issue core timing model with COMM-OP expansion hooks.

The core consumes a thread's dynamic instruction stream and assigns each
instruction an issue timestamp subject to: in-order issue at ``issue_width``
per cycle, register dependences (scoreboard), functional-unit and memory-port
structural hazards, memory-fence ordering, and — for PRODUCE/CONSUME
macro-ops — the active communication mechanism's expansion, which may insert
overhead micro-ops, touch the memory hierarchy, and block on queue state.

Stall attribution follows the paper's component taxonomy: time waiting on a
value returned by the memory system is charged using that access's
L2/BUS/L3/MEM mix; front-end, resource, queue-blocking and OzQ-backpressure
stalls are charged to ``PreL2``; retire bandwidth for every committed
instruction is charged to ``PostL2``; the residual issue pacing is
``COMPUTE``.  Attribution is necessarily approximate in the presence of
overlap — the reporting layer normalizes component *shares*, exactly as the
paper's stacked bars do.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Tuple

from repro.sim.isa import DynInst, InstrKind
from repro.sim.resources import UnitPool
from repro.sim.stats import LatencyBreakdown, ThreadStats

#: How many instructions a core may run between scheduler heartbeats.  Comm
#: macro-ops always synchronize, so this only bounds timestamp skew between
#: cores on communication-free stretches.
YIELD_INTERVAL = 64


class _Scoreboard:
    """Register ready-times plus the latency mix that produced each value."""

    __slots__ = ("_ready", "_mix")

    def __init__(self) -> None:
        self._ready = {}
        self._mix = {}

    def latest(self, regs) -> Tuple[float, Optional[int]]:
        """``(ready time, reg)`` of the operand that is last to arrive.

        The ready time of ``regs`` is its latest operand's (0.0 for none);
        ``reg`` is the first operand arriving then, whose access mix
        (:meth:`mix_of`) a stall waiting on ``regs`` is charged with.
        """
        best_t, best_r = -1.0, None
        ready = self._ready
        for r in regs:
            rt = ready.get(r, 0.0)
            if rt > best_t:
                best_t = rt
                best_r = r
        return (best_t if best_t > 0.0 else 0.0), best_r

    def mix_of(self, reg: Optional[int]) -> Optional[LatencyBreakdown]:
        """Breakdown that produced ``reg`` (None if an ALU result)."""
        return self._mix.get(reg)

    def define(self, reg: int, at: float, mix: Optional[LatencyBreakdown] = None) -> None:
        self._ready[reg] = at
        if mix is not None:
            self._mix[reg] = mix
        else:
            self._mix.pop(reg, None)


class CoreModel:
    """Timing model of one in-order core."""

    def __init__(self, core_id: int, machine) -> None:
        self.core_id = core_id
        self.machine = machine
        cfg = machine.config.core
        self.config = machine.config
        self.stats = ThreadStats(thread_id=core_id)
        self.scoreboard = _Scoreboard()
        self.ialu = UnitPool(cfg.n_ialu, name=f"c{core_id}-ialu")
        self.falu = UnitPool(cfg.n_falu, name=f"c{core_id}-falu")
        self.branch = UnitPool(cfg.n_branch, name=f"c{core_id}-branch")
        self.mem_ports = UnitPool(cfg.n_mem_ports, name=f"c{core_id}-mem")
        self._pace = 1.0 / cfg.issue_width
        self._commit_cost = 1.0 / cfg.commit_width
        self.t_issue = 0.0
        self.fence_ready = 0.0
        #: (complete, breakdown) of stores not yet covered by a fence.
        self.pending_stores = []
        #: Latest completion of any instruction (drain horizon).
        self.horizon = 0.0
        self.instructions_run = 0
        #: Trace sink shared with the machine (``None`` = tracing off; every
        #: core hook is then a single ``is None`` branch).
        self.trace = machine.trace
        #: True exactly while this core's generator is suspended at an
        #: instruction-boundary yield of :meth:`run` (or has not started /
        #: has finished).  At such a suspension the generator's entire
        #: hidden state is ``instructions_run`` — the invariant the
        #: checkpoint subsystem (:mod:`repro.sim.checkpoint`) is built on:
        #: a machine whose live cores are all at safe points can be
        #: serialized and later resumed by replaying each thread's
        #: instruction stream from its cursor.
        self.at_safe_point = True

    # ------------------------------------------------------------------
    # Public helpers used by communication mechanisms
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.t_issue

    def charge(self, component: str, cycles: float) -> None:
        self.stats.charge(component, cycles)

    def stall_until(
        self, t: float, mix: Optional[LatencyBreakdown] = None, component: str = "PreL2"
    ) -> None:
        """Advance the issue clock to ``t``, attributing the stall.

        With a ``mix``, the stall takes the memory-access component shares of
        that breakdown; otherwise it is charged to ``component``.
        """
        gap = t - self.t_issue
        if gap <= 0:
            return
        if mix is not None:
            self.stats.charge_breakdown(mix, gap)
        else:
            self.stats.components[component] += gap
        self.t_issue = t

    def retire(self, n: int = 1, overhead: bool = False) -> None:
        """Account for ``n`` committed instructions (PostL2 bandwidth)."""
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
        """Issue ``n`` overhead ALU/branch ops with the given chain height.

        Returns the completion time of the dependence chain.  Used by the
        software-queue expansion (compares, branches, pointer updates).
        """
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

    def overhead_load(
        self, addr: int, at: Optional[float] = None, streaming: bool = True
    ):
        """Issue one overhead load; returns the AccessResult (not exposed yet)."""
        issue = self._issue_mem_slot(at)
        result = self.machine.mem.load(self.core_id, addr, issue, streaming=streaming)
        self.retire(1, overhead=True)
        self.horizon = max(self.horizon, result.complete)
        return result

    def overhead_store(
        self, addr: int, at: Optional[float] = None, streaming: bool = True
    ):
        """Issue one overhead store; returns the AccessResult."""
        issue = self._issue_mem_slot(at)
        result = self.machine.mem.store(self.core_id, addr, issue, streaming=streaming)
        self.pending_stores.append((result.ordered, result.breakdown))
        self.retire(1, overhead=True)
        self.horizon = max(self.horizon, result.complete)
        return result

    def spin_wait(self, until: float, mix: LatencyBreakdown, instrs_per_spin: int = 2) -> int:
        """Model a software spin loop from ``now`` until ``until``.

        Each spin iteration re-executes the flag load + branch, flowing
        through the pipeline and recirculating through the OzQ, occupying L2
        ports (Section 4.4).  The whole window is charged using ``mix`` —
        the coherence-fetch component shares of the spun-on flag load.
        Returns the number of spin iterations modeled.
        """
        start = self.t_issue
        if until <= start:
            return 0
        interval = self.config.recirculation_interval
        n = max(1, int((until - start) / interval))
        self.machine.mem.ozq[self.core_id].recirculate(start, until)
        self.stats.spin_reissues += n
        self.retire(n * instrs_per_spin, overhead=True)
        self.stall_until(until, mix)
        return n

    def overhead_fence(self) -> None:
        """Issue a memory fence as part of a comm-op expansion."""
        self._do_fence(overhead=True)

    def _issue_mem_slot(self, at: Optional[float] = None) -> float:
        """Advance the issue clock through a memory-port issue slot."""
        target = max(self.t_issue + self._pace, at if at is not None else 0.0, self.fence_ready)
        grant = self.mem_ports.acquire(target, busy=1.0)
        comps = self.stats.components
        comps["COMPUTE"] += self._pace
        if grant > target:
            comps["PreL2"] += grant - target
        self.t_issue = grant
        return grant

    def issue_comm_slot(self, inst: DynInst) -> float:
        """Issue a PRODUCE/CONSUME instruction in-order.

        Like any instruction on an in-order core, a communication op cannot
        issue before its source operands are ready — a produce of a value
        still in flight from a cache miss stalls the pipe at issue, exposing
        that miss's latency in the producer thread.
        """
        return self._issue(inst, self.mem_ports)

    # ------------------------------------------------------------------
    # Main execution loop
    # ------------------------------------------------------------------

    def run(self, program: Iterable[DynInst]) -> Generator:
        """Generator executing ``program``; yields cosim protocol messages.

        The ``at_safe_point`` toggles bracket exactly the suspensions at
        which the generator's state is fully described by
        ``instructions_run``: before re-entering the loop body (a comm op
        re-executes from scratch, so suspension at its leading heartbeat is
        safe — nothing of instruction *k* has run yet) and at the
        between-instruction heartbeats.  Suspensions inside ``_comm`` (queue
        blocking, mechanism expansions) leave the flag False.
        """
        produce, consume = InstrKind.PRODUCE, InstrKind.CONSUME
        self.at_safe_point = False
        for inst in program:
            kind = inst.kind
            if kind is produce or kind is consume:
                self.at_safe_point = True
                yield ("time", self.t_issue)
                self.at_safe_point = False
                yield from self._comm(inst)
            else:
                self._plain(inst)
            self.instructions_run += 1
            if self.instructions_run % YIELD_INTERVAL == 0:
                self.at_safe_point = True
                yield ("time", self.t_issue)
                self.at_safe_point = False
        self._finish()
        self.at_safe_point = True
        yield ("time", self.stats.cycles)

    # ------------------------------------------------------------------

    def _issue(self, inst: DynInst, pool: UnitPool) -> float:
        """Compute and book the issue time of ``inst`` on ``pool``.

        The per-instruction components (COMPUTE pace, PreL2 operand and
        structural waits) accumulate straight into ``stats.components``, in
        the same order and amounts :meth:`ThreadStats.charge` would add them.
        """
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
        """Stall issue until all prior stores are globally visible."""
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

    def _comm(self, inst: DynInst) -> Generator:
        """Dispatch a PRODUCE/CONSUME macro-op to the mechanism.

        When tracing, the whole macro-op is bracketed so the COMM-OP
        profiler can recover its issue-clock span (``dur``), the queue
        full/empty blocking inside that span (``stall``), and the
        per-component attribution deltas — everything needed to compute the
        paper's COMM-OP delay without touching the mechanisms themselves.
        """
        mech = self.machine.mechanism
        if self.trace is None:
            if inst.kind is InstrKind.PRODUCE:
                self.stats.produces += 1
                yield from mech.produce(self, inst)
            else:
                self.stats.consumes += 1
                yield from mech.consume(self, inst)
            return
        t0 = self.t_issue
        comp0 = dict(self.stats.components)
        stall0 = self.stats.queue_full_stall + self.stats.queue_empty_stall
        if inst.kind is InstrKind.PRODUCE:
            self.stats.produces += 1
            kind = "comm.produce"
            yield from mech.produce(self, inst)
        else:
            self.stats.consumes += 1
            kind = "comm.consume"
            yield from mech.consume(self, inst)
        comps = self.stats.components
        deltas = {
            name.lower(): comps[name] - comp0[name]
            for name in comps
            if comps[name] > comp0[name]
        }
        stall = (
            self.stats.queue_full_stall + self.stats.queue_empty_stall - stall0
        )
        # Operand-feed exposure: a produce cannot complete before the app
        # dataflow delivers the value being sent.  That wait is application
        # time (identical across design points), not operation cost — the
        # profiler subtracts it from COMM-OP delay.
        feed = 0.0
        if inst.srcs:
            feed = max(
                0.0, min(self.scoreboard.latest(inst.srcs)[0], self.t_issue) - t0
            )
        self.trace.emit(
            kind,
            t0,
            core=self.core_id,
            queue=inst.queue,
            dur=self.t_issue - t0,
            stall=stall,
            feed=feed,
            **deltas,
        )

    def _finish(self) -> None:
        """Drain: the thread ends when its last effect completes."""
        end = max(self.t_issue + 1.0, self.horizon)
        if self.pending_stores:
            end = max(end, max(t for t, _ in self.pending_stores))
        self.stats.cycles = int(round(end))
