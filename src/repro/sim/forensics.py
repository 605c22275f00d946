"""Structured post-mortems for deadlocked or runaway co-simulations.

When the :class:`~repro.sim.kernel.SimKernel` finds every live core blocked
with no satisfiable predicate and no deadline (deadlock), or blows through
its step budget (runaway), a bare exception message is useless for
diagnosis: the interesting state — which cores were blocked since when,
which queue's produce/consume counts diverged, which injected faults were
active — lives in the machine, not the scheduler.

This module defines the machine-readable report the scheduler attaches to
:class:`~repro.sim.kernel.SimulationError` (as ``exc.post_mortem``) and
renders into the exception message.  The scheduler owns the per-core half
(:class:`CoreDump`); the :class:`~repro.sim.machine.Machine` supplies the
per-channel half (:class:`ChannelDump`) and any fault-injection records via
a context probe, so the kernel stays decoupled from queues and faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CoreDump:
    """One core's scheduler-visible state at failure time."""

    core_id: int
    state: str
    time: float
    steps: int
    #: Scheduler step at which this core last advanced.
    last_progress_step: int
    #: This core's local clock when it last advanced.
    last_progress_time: float
    deadline: Optional[float] = None

    def describe(self) -> str:
        line = (
            f"core {self.core_id}: {self.state} at t={self.time:.0f} "
            f"after {self.steps} steps "
            f"(last progress: step {self.last_progress_step}, "
            f"t={self.last_progress_time:.0f})"
        )
        if self.state == "blocked":
            line += (
                f", deadline={self.deadline:.0f}"
                if self.deadline is not None
                else ", no deadline"
            )
        return line


@dataclass
class ChannelDump:
    """One inter-thread queue's visibility-timeline state at failure time."""

    queue_id: int
    producer_core: int
    consumer_core: int
    depth: int
    n_produced: int
    n_consumed: int
    #: Items whose values have been published to the consumer.
    n_published: int
    #: Slots whose recycling has become producer-visible.
    n_freed: int
    last_produced_at: Optional[float] = None
    last_freed_at: Optional[float] = None
    lines_forwarded: int = 0
    #: A fault wedged this channel: no further frees will ever be observed.
    wedged: bool = False

    @property
    def occupancy(self) -> int:
        """Produced items whose slots are not yet known-freed."""
        return self.n_produced - self.n_freed

    def suspicions(self) -> List[str]:
        """Heuristic diagnoses for why this channel may block a core."""
        out = []
        if self.wedged:
            out.append("WEDGED: slot recycling permanently stalled by a fault")
        if self.n_consumed > self.n_produced:
            out.append(
                f"consumer ran ahead: {self.n_consumed} consumes vs "
                f"{self.n_produced} produces (mismatched counts)"
            )
        elif self.occupancy >= self.depth:
            out.append(
                f"queue full with no frees in sight "
                f"(occupancy {self.occupancy}/{self.depth})"
            )
        if self.n_published < self.n_consumed:
            out.append(
                f"consumer waiting on unpublished item "
                f"{self.n_published} (e.g. a dropped write-forward)"
            )
        return out

    def describe(self) -> str:
        line = (
            f"queue {self.queue_id} (core {self.producer_core} -> "
            f"core {self.consumer_core}, depth {self.depth}): "
            f"produced={self.n_produced} consumed={self.n_consumed} "
            f"published={self.n_published} freed={self.n_freed} "
            f"occupancy={self.occupancy}"
        )
        for s in self.suspicions():
            line += f"\n    ! {s}"
        return line


@dataclass
class PostMortem:
    """Machine-readable report attached to a failed simulation."""

    reason: str  # "deadlock" or "step-limit"
    total_steps: int
    cores: List[CoreDump] = field(default_factory=list)
    channels: List[ChannelDump] = field(default_factory=list)
    #: FaultInjection records applied during the run (if a plan was active).
    injections: List[object] = field(default_factory=list)
    #: Last trace events per core (``None`` key = global events), when the
    #: run was traced: the actual event sequence leading up to the wedge.
    trace_tail: Dict[Optional[int], List[object]] = field(default_factory=dict)

    def blocked_cores(self) -> List[int]:
        return [c.core_id for c in self.cores if c.state == "blocked"]

    def render(self) -> str:
        lines = [f"post-mortem ({self.reason}, {self.total_steps} scheduler steps):"]
        for core in self.cores:
            lines.append("  " + core.describe())
        if self.channels:
            for ch in self.channels:
                lines.append("  " + ch.describe())
        else:
            lines.append("  (no queue channels instantiated)")
        if self.injections:
            lines.append(f"  {len(self.injections)} fault injection(s) applied:")
            for inj in self.injections[-8:]:
                desc = inj.describe() if hasattr(inj, "describe") else repr(inj)
                lines.append("    " + desc)
            if len(self.injections) > 8:
                lines.append(f"    ... and {len(self.injections) - 8} earlier")
        if self.trace_tail:
            lines.append("  last trace events per core:")
            for core in sorted(
                self.trace_tail, key=lambda c: (c is None, c)
            ):
                label = "global" if core is None else f"core {core}"
                lines.append(f"    {label}:")
                for ev in self.trace_tail[core]:
                    desc = ev.describe() if hasattr(ev, "describe") else repr(ev)
                    lines.append("      " + desc)
        return "\n".join(lines)


def dump_channel(ch) -> ChannelDump:
    """Snapshot a :class:`~repro.core.queue_model.QueueChannel` (duck-typed)."""
    return ChannelDump(
        queue_id=ch.queue_id,
        producer_core=ch.producer_core,
        consumer_core=ch.consumer_core,
        depth=ch.depth,
        n_produced=ch.n_produced,
        n_consumed=ch.n_consumed,
        n_published=len(ch.produced),
        n_freed=len(ch.freed),
        last_produced_at=ch.produced[-1] if ch.produced else None,
        last_freed_at=ch.freed[-1] if ch.freed else None,
        lines_forwarded=len(ch.line_forwarded),
        wedged=getattr(ch, "wedged", False),
    )
