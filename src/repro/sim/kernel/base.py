"""The co-simulation kernel: one conservative min-timestamp stepping loop.

Each core's timing model runs as a Python generator that yields control
messages; the kernel always advances the runnable core with the smallest
local time, which guarantees that whenever a core touches shared state
(caches, bus, queue channels) at time *t*, every other core has either
advanced past *t* or is blocked waiting on this core — so shared state is
read and written in (approximately) timestamp order without any global clock
stepping.

Yield protocol (producer side is the core/mechanism code):

* ``("time", t)`` — heartbeat: the core's local clock reached ``t``.
* ``("block", predicate, deadline)`` — the core cannot proceed until
  ``predicate()`` (a closure over shared channel state) becomes true.  The
  kernel resumes the generator with ``"ok"`` once the predicate holds, or
  with ``"timeout"`` when ``deadline`` (a simulated time, or ``None``) passes
  without the predicate holding — used by SYNCOPTI's partial-line timeout.

A generator finishing (``StopIteration``) marks its core done.

The policy, one pass over the runners per step: in core-id order, wake every
blocked runner whose predicate holds or whose deadline has provably passed,
and keep the runnable runner with the smallest local time (ties to the
lowest core id); step it.  When nothing is runnable, fire the earliest
deadline (ties to the lowest core id) or, if none can fire, raise the
deadlock post-mortem.  Predicates are polled before every step.

Failure forensics: when the kernel detects a deadlock (everyone blocked,
no deadline can fire) or exhausts its step budget, it raises a
:class:`SimulationError` subclass carrying a structured
:class:`~repro.sim.forensics.PostMortem` (``exc.post_mortem``) built from
its per-core book-keeping plus whatever the optional ``context_probe``
callback supplies (queue-channel snapshots and fault-injection records from
the owning :class:`~repro.sim.machine.Machine`).  Around the loop sit the
wall-clock watchdog, the external abort probe and the checkpoint hook.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple, Type

from repro.sim.forensics import ChannelDump, CoreDump, PostMortem

#: Signature of the optional machine-context probe: returns (channel
#: snapshots, fault-injection records[, per-core trace tail]) for
#: post-mortem construction — the third element is optional so probes
#: written before the tracing subsystem keep working.
ContextProbe = Callable[[], Tuple[Sequence[ChannelDump], Sequence[object]]]

#: Scheduler steps before the *first* wall-clock watchdog check.  The check
#: cadence is time-based from then on: after each check the step interval is
#: rescaled so successive checks land roughly :data:`WALL_CLOCK_CHECK_TARGET`
#: host seconds apart, whatever a step costs.  Cheap steps therefore mean
#: more steps between checks and costly ones fewer, and
#: :class:`WallClockExceededError` fires within the same host-latency bound
#: either way.
WALL_CLOCK_CHECK_INTERVAL = 256

#: Target host seconds between wall-clock watchdog checks.
WALL_CLOCK_CHECK_TARGET = 0.05

#: Bounds on the adaptive check interval (steps).  The floor keeps a
#: pathologically slow step from degrading to per-step timer calls; the
#: ceiling bounds how far one adaptation can overshoot on a host hiccup.
WALL_CLOCK_CHECK_MIN_INTERVAL = 16
WALL_CLOCK_CHECK_MAX_INTERVAL = 1 << 16


class SimulationError(RuntimeError):
    """Base class for kernel failures; carries a structured post-mortem."""

    def __init__(self, message: str, post_mortem: Optional[PostMortem] = None) -> None:
        super().__init__(message)
        self.post_mortem = post_mortem


class DeadlockError(SimulationError):
    """All live cores are blocked and no deadline can fire."""


class SimulationLimitError(SimulationError):
    """The kernel exceeded its step budget (runaway program)."""


class WallClockExceededError(SimulationError):
    """The simulation outlived its host wall-clock budget.

    Raised by the kernel's in-process watchdog (time-based cadence, see
    :data:`WALL_CLOCK_CHECK_TARGET`), so the post-mortem is built while the
    run's channel and core state are still alive — the campaign runner
    records it in a :class:`~repro.harness.runner.TimedOutRun` before the
    pool's hard kill would have destroyed all forensics.

    Unlike deadlocks and step-limit overruns — which are functions of the
    (seeded, deterministic) simulation alone and therefore reproduce on every
    retry — a wall-clock overrun depends on host load, so it is classified
    *transient* by :func:`repro.faults.classify.classify_error_type`.
    """

    def __init__(
        self,
        message: str,
        post_mortem: Optional[PostMortem] = None,
        budget: float = 0.0,
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(message, post_mortem=post_mortem)
        self.budget = budget
        self.elapsed = elapsed


class SimulationAbortedError(SimulationError):
    """An external abort probe asked the run to stop.

    Raised at the wall-clock watchdog's cadence when the kernel's ``abort``
    callable returns a reason string: queue workers use it to fence a
    simulation whose lease was reclaimed (a zombie burning host time on a
    cell someone else now owns), and the chaos drill uses it to bound
    exploratory runs.  Like a wall-clock overrun it says nothing about the
    simulation itself, so the failure classifier treats it as transient.
    """


class _State(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class CoreRunner:
    """Book-keeping wrapper around one core generator."""

    core_id: int
    gen: Generator
    time: float = 0.0
    state: _State = _State.RUNNABLE
    predicate: Optional[Callable[[], bool]] = None
    deadline: Optional[float] = None
    resume_value: Optional[str] = None
    steps: int = 0
    #: Scheduler step / local time at this runner's most recent advance.
    last_progress_step: int = 0
    last_progress_time: float = 0.0


class SimKernel:
    """The stepping loop over a set of core generators."""

    def __init__(
        self,
        generators,
        max_steps: int = 50_000_000,
        context_probe: Optional[ContextProbe] = None,
        trace=None,
        wall_clock_budget: Optional[float] = None,
        checkpoint=None,
        abort: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        self.runners: List[CoreRunner] = [
            CoreRunner(core_id=i, gen=g) for i, g in enumerate(generators)
        ]
        self.max_steps = max_steps
        self.total_steps = 0
        self.context_probe = context_probe
        #: Host seconds this run may consume (None = unbounded).  The clock
        #: starts at construction so setup cost counts against the budget.
        self.wall_clock_budget = wall_clock_budget
        #: External-cancellation probe: returns a reason string to stop the
        #: run (:class:`SimulationAbortedError`) or ``None`` to continue.
        #: Checked at the watchdog cadence, so it shares the watchdog's
        #: zero-overhead contract — when both it and the budget are ``None``
        #: the hot loop keeps its single dead branch.
        self.abort = abort
        self._wall_clock_start = (
            time.monotonic() if (wall_clock_budget or abort is not None) else None
        )
        self._wall_clock_last_check = self._wall_clock_start
        self._wall_clock_interval = WALL_CLOCK_CHECK_INTERVAL
        self._wall_clock_next_step = WALL_CLOCK_CHECK_INTERVAL
        #: Optional :class:`~repro.trace.buffer.TraceBuffer`; ``None`` keeps
        #: every kernel hook to a single branch (zero-overhead contract).
        self.trace = trace
        #: Optional :class:`~repro.sim.checkpoint.Checkpointer`, pinned like
        #: ``trace``: ``None`` (the default) reduces the hook to one branch
        #: per kernel step.  When set, its ``on_step`` runs after every
        #: step and snapshots the machine at due safe points.  Checkpointing
        #: never mutates simulation state, so enabling it cannot change
        #: RunStats or the trace stream.
        self.checkpoint = checkpoint

    def run(self) -> None:
        """Drive all cores to completion.

        Runner state is read afresh on every pass, so a checkpoint resume
        that restores runners after construction is stepped from there.
        """
        runners = self.runners
        checkpoint = self.checkpoint
        step = self._step
        blocked, runnable = _State.BLOCKED, _State.RUNNABLE
        while True:
            best = None
            for r in runners:
                state = r.state
                if state is blocked:
                    if r.predicate is not None and r.predicate():
                        self._wake(r, "ok")
                    elif r.deadline is not None and self._others_past(r, r.deadline):
                        self._wake(r, "timeout")
                    else:
                        continue
                elif state is not runnable:
                    continue
                if best is None or r.time < best.time:
                    best = r
            if best is None:
                if all(r.state is _State.DONE for r in runners):
                    return
                if not self._fire_timeout():
                    self._raise_deadlock()
                continue
            step(best)
            if checkpoint is not None:
                checkpoint.on_step(self)

    # ------------------------------------------------------------------
    # Wake / step primitives
    # ------------------------------------------------------------------

    def _others_past(self, runner: CoreRunner, deadline: float) -> bool:
        """True when no other core can produce an event before ``deadline``."""
        for other in self.runners:
            if other is runner:
                continue
            if other.state is _State.DONE:
                continue
            if other.state is _State.RUNNABLE and other.time <= deadline:
                return False
            if other.state is _State.BLOCKED:
                # A blocked peer could be woken by us later; treat its
                # current time as its earliest possible event time.
                if other.time <= deadline:
                    return False
        return True

    def _wake(self, runner: CoreRunner, value: str) -> None:
        runner.state = _State.RUNNABLE
        runner.resume_value = value
        runner.predicate = None
        runner.deadline = None
        if self.trace is not None:
            self.trace.emit(
                "sched.resume", runner.time, core=runner.core_id, status=value
            )

    def _fire_timeout(self) -> bool:
        """With everyone blocked, fire the earliest deadline, if any.

        Ties (equal deadlines) resolve to the lowest core id: ``min`` is
        stable and runners are kept in core-id order, so repeated runs fire
        the same runner first — determinism the tests pin down.
        """
        candidates = [
            r for r in self.runners if r.state is _State.BLOCKED and r.deadline is not None
        ]
        if not candidates:
            return False
        self._wake(min(candidates, key=lambda r: r.deadline), "timeout")
        return True

    def _step(self, runner: CoreRunner) -> None:
        steps = self.total_steps = self.total_steps + 1
        runner.steps += 1
        runner.last_progress_step = steps
        if steps > self.max_steps:
            self._raise_limit()
        if self._wall_clock_start is not None and steps >= self._wall_clock_next_step:
            self._check_wall_clock()
        try:
            msg = runner.gen.send(runner.resume_value)
        except StopIteration:
            runner.state = _State.DONE
            runner.last_progress_time = runner.time
            if self.trace is not None:
                self.trace.emit("sched.done", runner.time, core=runner.core_id)
            return
        finally:
            runner.resume_value = None
        if not isinstance(msg, tuple) or not msg:
            raise TypeError(f"core {runner.core_id} yielded malformed message {msg!r}")
        kind = msg[0]
        if kind == "time":
            t = float(msg[1])
            if t > runner.time:
                runner.time = t
            runner.last_progress_time = runner.time
        elif kind == "block":
            _, predicate, deadline = msg
            if predicate():
                runner.resume_value = "ok"  # condition already satisfied
            else:
                runner.state = _State.BLOCKED
                runner.predicate = predicate
                runner.deadline = deadline
                if self.trace is not None:
                    self.trace.emit(
                        "sched.block",
                        runner.time,
                        core=runner.core_id,
                        deadline=deadline,
                    )
        else:
            raise ValueError(f"core {runner.core_id} yielded unknown message {msg!r}")

    # ------------------------------------------------------------------
    # Failure forensics
    # ------------------------------------------------------------------

    def build_post_mortem(self, reason: str) -> PostMortem:
        """Snapshot kernel + machine context into a structured report."""
        cores = [
            CoreDump(
                core_id=r.core_id,
                state=r.state.value,
                time=r.time,
                steps=r.steps,
                last_progress_step=r.last_progress_step,
                last_progress_time=r.last_progress_time,
                deadline=r.deadline,
            )
            for r in self.runners
        ]
        channels: List[ChannelDump] = []
        injections: List[object] = []
        trace_tail: dict = {}
        if self.context_probe is not None:
            probed = self.context_probe()
            channels = list(probed[0])
            injections = list(probed[1])
            if len(probed) > 2:  # older two-tuple probes stay supported
                trace_tail = dict(probed[2])
        return PostMortem(
            reason=reason,
            total_steps=self.total_steps,
            cores=cores,
            channels=channels,
            injections=injections,
            trace_tail=trace_tail,
        )

    def _raise_deadlock(self) -> None:
        blocked = [r.core_id for r in self.runners if r.state is _State.BLOCKED]
        pm = self.build_post_mortem("deadlock")
        raise DeadlockError(
            f"cores {blocked} are blocked with no satisfiable predicate — "
            "produce/consume counts are mismatched or a queue dependency "
            f"cycle exists\n{pm.render()}",
            post_mortem=pm,
        )

    def _raise_limit(self) -> None:
        pm = self.build_post_mortem("step-limit")
        raise SimulationLimitError(
            f"exceeded {self.max_steps} scheduler steps; "
            f"suspected runaway workload\n{pm.render()}",
            post_mortem=pm,
        )

    def _check_wall_clock(self) -> None:
        """One watchdog check, then re-aim the next one ~TARGET seconds out.

        The adaptive cadence is a host-side concern only: checks never
        mutate simulation state, so checking more or less often cannot
        change RunStats or the trace stream — it only bounds how long past
        its budget a wedged run can live.
        """
        if self.abort is not None:
            reason = self.abort()
            if reason is not None:
                pm = self.build_post_mortem("aborted")
                raise SimulationAbortedError(
                    f"run aborted after {self.total_steps} steps: {reason}"
                    f"\n{pm.render()}",
                    post_mortem=pm,
                )
        now = time.monotonic()
        elapsed = now - self._wall_clock_start
        if self.wall_clock_budget is not None and elapsed > self.wall_clock_budget:
            pm = self.build_post_mortem("wall-clock")
            raise WallClockExceededError(
                f"exceeded the {self.wall_clock_budget:g}s wall-clock budget after "
                f"{elapsed:.2f}s and {self.total_steps} steps — the run is wedged "
                f"or far too slow for its deadline\n{pm.render()}",
                post_mortem=pm,
                budget=self.wall_clock_budget,
                elapsed=elapsed,
            )
        since_last = now - self._wall_clock_last_check
        self._wall_clock_last_check = now
        interval = self._wall_clock_interval
        if since_last < WALL_CLOCK_CHECK_TARGET / 2:
            interval = min(interval * 2, WALL_CLOCK_CHECK_MAX_INTERVAL)
        elif since_last > WALL_CLOCK_CHECK_TARGET * 2:
            interval = max(interval // 2, WALL_CLOCK_CHECK_MIN_INTERVAL)
        self._wall_clock_interval = interval
        self._wall_clock_next_step = self.total_steps + interval


# ----------------------------------------------------------------------
# Kernel names at the outside boundaries
# ----------------------------------------------------------------------

#: The one loop's name: the ``kernel`` of every cell spec, store digest and
#: ``repro_sim_*`` metric label.
KERNEL = "reference"

#: Names accepted where input arrives from outside (campaign cells, ledger
#: spec records, serve queries, the CLI's ``--kernel``).  ``"event"`` named
#: a second stepping loop that was retired; ledgers and queries that name
#: it still resolve to the one loop.
_ACCEPTED_NAMES = ("reference", "event")


def canonical_kernel(name: str) -> str:
    """Map an accepted kernel name to :data:`KERNEL`; reject any other.

    Called before a spec is hashed, so a cell spelled with either name has
    the default cell's key and store digest.
    """
    if name not in _ACCEPTED_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; known: {', '.join(_ACCEPTED_NAMES)}"
        )
    return KERNEL


def available_kernels() -> Tuple[str, ...]:
    """Names of the stepping loops (there is one).

    Kept, with :func:`kernel_class`, for the benchmark's tracer, which
    wraps the ``run`` of each loop it finds through them.
    """
    return (KERNEL,)


def kernel_class(name: str) -> Type[SimKernel]:
    """The stepping-loop class an accepted kernel name resolves to."""
    canonical_kernel(name)
    return SimKernel


def observe_run(stats) -> None:
    """Fold one completed run's throughput into ``repro.obs``.

    Called by :meth:`Machine.run` and :func:`~repro.sim.checkpoint.resume_run`
    after stamping ``host_seconds`` — i.e.
    once per simulation, entirely outside the stepping loop, in whatever
    process ran the kernel (a serve pool worker, a fleet worker, the
    campaign parent).  Observes ``simulated_cycles_per_sec`` into the
    registry histogram labelled ``kernel=KERNEL`` and logs a ``kernel.run``
    event tagged with the ambient correlation ID.  When obs is disabled the entire
    cost is the ``get_state()`` check, preserving the kernel subsystem's
    zero-overhead contract (``host_seconds`` itself stays out of
    fingerprints, so none of this perturbs determinism).
    """
    from repro.obs import runtime as _obs
    from repro.obs.registry import CYCLES_PER_SEC_BUCKETS

    state = _obs.get_state()
    if state is None:
        return
    cps = stats.simulated_cycles_per_sec
    state.registry.histogram(
        "repro_sim_cycles_per_sec",
        "Simulated cycles per host second, per kernel",
        buckets=CYCLES_PER_SEC_BUCKETS,
        kernel=KERNEL,
    ).observe(cps)
    state.registry.counter(
        "repro_sim_runs_total", "Completed simulation runs", kernel=KERNEL
    ).inc()
    state.emit(
        "kernel.run",
        cid=_obs.current_cid(),
        kernel=KERNEL,
        cycles=stats.cycles,
        cycles_per_sec=round(cps, 1),
        host_seconds=round(stats.host_seconds, 6),
    )
