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

from heapq import heapreplace
from typing import Generator, Iterable, Optional, Tuple

from repro.sim.isa import EXEC_LATENCY, DynInst, InstrKind
from repro.sim.resources import UnitPool
from repro.sim.stats import LatencyBreakdown, ThreadStats

#: How many instructions a core may run between scheduler heartbeats.  Comm
#: macro-ops always synchronize, so this only bounds timestamp skew between
#: cores on communication-free stretches.
YIELD_INTERVAL = 64


class _Scoreboard:
    """Register ready-times plus the latency mix that produced each value.

    The core's issue path reads and writes ``_ready`` and ``_mix`` in place;
    these methods serve the communication mechanisms.  A register defined
    by an ALU op maps to a ``None`` mix.
    """

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
        self._mix[reg] = mix


class CoreModel:
    """Timing model of one in-order core.

    Every unit pool of a core grants with ``busy=1.0``; the issue paths
    below book those grants on the pool's free-at heap in place, exactly as
    :meth:`UnitPool.acquire` would.
    """

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
        # Hot-path bindings, made when the machine is built (never at
        # import), so class-level instrumentation installed before the
        # build is what the core calls.
        self._comps = self.stats.components
        self._ready = self.scoreboard._ready
        self._mixes = self.scoreboard._mix
        self._mem_load = machine.mem.load
        self._mem_store = machine.mem.store

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
            self._comps[component] += gap
        self.t_issue = t

    def retire(self, n: int = 1, overhead: bool = False) -> None:
        """Account for ``n`` committed instructions (PostL2 bandwidth)."""
        stats = self.stats
        if overhead:
            stats.comm_instructions += n
        else:
            stats.app_instructions += n
        self._comps["PostL2"] += n * self._commit_cost
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
        start = t = self.t_issue
        comps = self._comps
        pace = self._pace
        pool = self.ialu
        free_at = pool._free_at
        for _ in range(n):
            floor = t + pace
            first = free_at[0]
            t = first if first > floor else floor
            heapreplace(free_at, t + 1.0)
            comps["COMPUTE"] += pace
            if t > floor:
                comps["PreL2"] += t - floor
        pool.grants += n
        pool.busy_cycles += n  # n grants of 1.0 each: exact in a float
        self.t_issue = t
        self.stats.comm_instructions += n
        comps["PostL2"] += n * self._commit_cost
        if self.trace is not None:
            self.trace.emit("core.retire", t, core=self.core_id, n=n, overhead=True)
        complete = start + dep_height
        if t > complete:
            complete = t
        if complete > self.horizon:
            self.horizon = complete
        return complete

    def overhead_load(
        self, addr: int, at: Optional[float] = None, streaming: bool = True
    ):
        """Issue one overhead load; returns the AccessResult (not exposed yet)."""
        issue = self._issue_mem_slot(at)
        result = self._mem_load(self.core_id, addr, issue, streaming)
        self.stats.comm_instructions += 1
        self._comps["PostL2"] += self._commit_cost
        if self.trace is not None:
            self.trace.emit("core.retire", issue, core=self.core_id, n=1, overhead=True)
        if result.complete > self.horizon:
            self.horizon = result.complete
        return result

    def overhead_store(
        self, addr: int, at: Optional[float] = None, streaming: bool = True
    ):
        """Issue one overhead store; returns the AccessResult."""
        issue = self._issue_mem_slot(at)
        result = self._mem_store(self.core_id, addr, issue, streaming)
        self.pending_stores.append((result.ordered, result.breakdown))
        self.stats.comm_instructions += 1
        self._comps["PostL2"] += self._commit_cost
        if self.trace is not None:
            self.trace.emit("core.retire", issue, core=self.core_id, n=1, overhead=True)
        if result.complete > self.horizon:
            self.horizon = result.complete
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
        self._do_fence()
        self.stats.comm_instructions += 1
        self._comps["PostL2"] += self._commit_cost
        if self.trace is not None:
            self.trace.emit(
                "core.retire", self.t_issue, core=self.core_id, n=1, overhead=True
            )

    def _issue_mem_slot(self, at: Optional[float] = None) -> float:
        """Advance the issue clock through a memory-port issue slot."""
        target = self.t_issue + self._pace
        if at is not None and at > target:
            target = at
        if self.fence_ready > target:
            target = self.fence_ready
        pool = self.mem_ports
        free_at = pool._free_at
        first = free_at[0]
        grant = first if first > target else target
        heapreplace(free_at, grant + 1.0)
        pool.grants += 1
        pool.busy_cycles += 1.0
        comps = self._comps
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
        """Generator executing ``program``; yields kernel protocol messages.

        The ``at_safe_point`` toggles bracket exactly the suspensions at
        which the generator's state is fully described by
        ``instructions_run``: before re-entering the loop body (a comm op
        re-executes from scratch, so suspension at its leading heartbeat is
        safe — nothing of instruction *k* has run yet) and at the
        between-instruction heartbeats.  Suspensions inside a comm op
        (queue blocking, mechanism expansions) leave the flag False.

        Every other instruction issues through one :meth:`_issue` call;
        its completion, scoreboard update and retirement follow inline.
        The instruction count lives in a local between heartbeats and is
        stored back before every suspension.
        """
        IALU, BRANCH, FALU, NOP = InstrKind.IALU, InstrKind.BRANCH, InstrKind.FALU, InstrKind.NOP
        LOAD, STORE, FENCE = InstrKind.LOAD, InstrKind.STORE, InstrKind.FENCE
        PRODUCE, CONSUME = InstrKind.PRODUCE, InstrKind.CONSUME
        ialu_lat, branch_lat = EXEC_LATENCY[IALU], EXEC_LATENCY[BRANCH]
        falu_lat, nop_lat = EXEC_LATENCY[FALU], EXEC_LATENCY[NOP]
        issue = self._issue
        ialu, falu, branch, mem_ports = self.ialu, self.falu, self.branch, self.mem_ports
        stats = self.stats
        comps = self._comps
        ready, mixes = self._ready, self._mixes
        mem_load, mem_store = self._mem_load, self._mem_store
        pending_stores = self.pending_stores
        commit = self._commit_cost
        core_id = self.core_id
        trace = self.trace
        mech = self.machine.mechanism
        produce, consume = mech.produce, mech.consume
        interval = YIELD_INTERVAL
        count = self.instructions_run
        self.at_safe_point = False
        for inst in program:
            kind = inst.kind
            if kind is PRODUCE or kind is CONSUME:
                self.instructions_run = count
                self.at_safe_point = True
                yield ("time", self.t_issue)
                self.at_safe_point = False
                if trace is not None:
                    yield from self._comm(inst)
                elif kind is PRODUCE:
                    stats.produces += 1
                    yield from produce(self, inst)
                else:
                    stats.consumes += 1
                    yield from consume(self, inst)
            else:
                pool = None
                if kind is IALU:
                    pool, latency = ialu, ialu_lat
                elif kind is LOAD:
                    result = mem_load(core_id, inst.addr, issue(inst, mem_ports), False)
                    complete = result.complete
                    dest = inst.dest
                    if dest is not None:
                        ready[dest] = complete
                        mixes[dest] = result.breakdown
                    if complete > self.horizon:
                        self.horizon = complete
                elif kind is BRANCH:
                    pool, latency = branch, branch_lat
                elif kind is FALU:
                    pool, latency = falu, falu_lat
                elif kind is STORE:
                    result = mem_store(core_id, inst.addr, issue(inst, mem_ports), False)
                    pending_stores.append((result.ordered, result.breakdown))
                    complete = result.complete
                    if complete > self.horizon:
                        self.horizon = complete
                elif kind is FENCE:
                    self._do_fence()
                elif kind is NOP:
                    pool, latency = ialu, nop_lat
                else:  # PREFETCH
                    mem_load(core_id, inst.addr, issue(inst, mem_ports), False)
                if pool is not None:
                    complete = issue(inst, pool)
                    complete += latency if inst.latency is None else inst.latency
                    dest = inst.dest
                    if dest is not None:
                        ready[dest] = complete
                        mixes[dest] = None
                    if complete > self.horizon:
                        self.horizon = complete
                if inst.is_overhead:
                    stats.comm_instructions += 1
                else:
                    stats.app_instructions += 1
                comps["PostL2"] += commit
                if trace is not None:
                    trace.emit(
                        "core.retire", self.t_issue, core=core_id,
                        n=1, overhead=inst.is_overhead,
                    )
            count += 1
            if count % interval == 0:
                self.instructions_run = count
                self.at_safe_point = True
                yield ("time", self.t_issue)
                self.at_safe_point = False
        self.instructions_run = count
        self._finish()
        self.at_safe_point = True
        yield ("time", self.stats.cycles)

    # ------------------------------------------------------------------

    def _issue(self, inst: DynInst, pool: UnitPool) -> float:
        """Compute and book the issue time of ``inst`` on ``pool``.

        The one issue rule: after the previous issue slot and any fence,
        once the last-arriving source operand is ready, on the earliest
        free unit of ``pool``.  The per-instruction components (COMPUTE
        pace, PreL2 operand and structural waits) accumulate straight into
        ``stats.components``, in the same order and amounts
        :meth:`ThreadStats.charge` would add them; an operand wait on a
        loaded value takes that load's latency mix.
        """
        comps = self._comps
        pace = self._pace
        floor = self.t_issue + pace
        comps["COMPUTE"] += pace
        fence_ready = self.fence_ready
        start = fence_ready if fence_ready > floor else floor
        srcs = inst.srcs
        if srcs:
            ready = self._ready
            op_ready = start
            reg = None
            for r in srcs:
                rt = ready.get(r, 0.0)
                if rt > op_ready:
                    op_ready = rt
                    reg = r
            if reg is not None:
                mix = self._mixes[reg]
                if mix is not None:
                    self.stats.charge_breakdown(mix, op_ready - start)
                else:
                    comps["PreL2"] += op_ready - start
                start = op_ready
        free_at = pool._free_at
        first = free_at[0]
        if first > start:
            comps["PreL2"] += first - start
            start = first
        heapreplace(free_at, start + 1.0)
        pool.grants += 1
        pool.busy_cycles += 1.0
        self.t_issue = start
        return start

    def _do_fence(self) -> None:
        """Stall issue until all prior stores are globally visible.

        The caller retires the fence.
        """
        pace = self._pace
        floor = self.t_issue + pace
        pool = self.ialu
        free_at = pool._free_at
        first = free_at[0]
        t = first if first > floor else floor
        heapreplace(free_at, t + 1.0)
        pool.grants += 1
        pool.busy_cycles += 1.0
        self._comps["COMPUTE"] += pace
        pending = self.pending_stores
        if pending:
            worst_t, worst_mix = pending[0]
            for stored_t, mix in pending:
                if stored_t > worst_t:
                    worst_t, worst_mix = stored_t, mix
            if worst_t > t:
                self.stats.charge_breakdown(worst_mix, worst_t - t)
                t = worst_t
            pending.clear()
        self.t_issue = t
        self.fence_ready = t

    def _comm(self, inst: DynInst) -> Generator:
        """Run a PRODUCE/CONSUME macro-op under tracing.

        The whole macro-op is bracketed so the COMM-OP profiler can recover
        its issue-clock span (``dur``), the queue full/empty blocking inside
        that span (``stall``), and the per-component attribution deltas —
        everything needed to compute the paper's COMM-OP delay without
        touching the mechanisms themselves.
        """
        mech = self.machine.mechanism
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
