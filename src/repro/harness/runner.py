"""Run outcomes, and the two one-run entry points.

Everything the experiment layer needs from one simulation: wall-clock
cycles, per-thread component breakdowns, and communication statistics —
with the benchmark's iteration count scaled down uniformly so the whole
evaluation grid runs in seconds (the paper's *relative* quantities are
iteration-count-invariant once past warm-up).

:func:`run_benchmark` and :func:`run_single_threaded` build a
:class:`~repro.harness.campaign.CampaignCell` and run it through
:func:`~repro.harness.campaign.run_cell`, the one executor, so each run
is a cell the result store can name; they raise on failure.  Sweeps and
campaigns run cells through :func:`~repro.harness.campaign.execute_cell`
instead, which turns a cell that deadlocks or exhausts its step budget
into a structured :class:`FailedRun` carrying the scheduler's
:class:`~repro.sim.forensics.PostMortem` (the caller renders the gap
explicitly), and a cell that outlives its wall-clock budget into a
:class:`TimedOutRun` — the transient sibling the campaign runner retries
with backoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.sim.forensics import PostMortem
from repro.sim.machine import Machine
from repro.sim.stats import RunStats, ThreadStats
from repro.trace.buffer import TraceBuffer, TraceConfig

#: The ``trace`` knob accepted by :func:`run_benchmark` and ``run_cell``:
#: ``None``/``False`` (off), ``True`` (trace with defaults), or a full
#: :class:`TraceConfig`.
TraceKnob = Union[None, bool, TraceConfig]

#: Default iteration count for experiment runs: enough to wash out cold-start
#: transients while keeping the full grid fast.
DEFAULT_TRIP_COUNT = 400


@dataclass
class RunResult:
    """Outcome of one successful (benchmark, design point) simulation."""

    benchmark: str
    design_point: str
    cycles: int
    stats: RunStats
    machine: Optional[Machine] = field(repr=False, default=None)
    #: The run's :class:`~repro.trace.buffer.TraceBuffer` when tracing was
    #: requested (the ``trace=`` knob, or a pipeline cell's comm trace),
    #: else ``None``.
    trace: Optional[TraceBuffer] = field(repr=False, default=None)
    #: Small derived payloads a campaign worker computed in-process before
    #: the heavyweight ``machine``/``trace`` were stripped at the process
    #: boundary (e.g. the pipeline study's per-hop delays and bus
    #: utilization).  Empty for ordinary in-process runs.
    extras: Dict[str, object] = field(repr=False, default_factory=dict)

    def fingerprint(self) -> str:
        """Stable :meth:`~repro.sim.stats.RunStats.fingerprint` of the run."""
        return self.stats.fingerprint()

    @property
    def ok(self) -> bool:
        return True

    @property
    def producer(self) -> ThreadStats:
        return self.stats.producer

    @property
    def consumer(self) -> ThreadStats:
        return self.stats.consumer

    def thread_components(self, thread: str, baseline_cycles: float) -> Dict[str, float]:
        """Normalized component bars for 'producer' or 'consumer'."""
        t = self.producer if thread == "producer" else self.consumer
        return t.normalized_components(baseline_cycles)


@dataclass
class FailedRun:
    """A (benchmark, design point) cell that failed instead of finishing.

    Produced by :func:`~repro.harness.campaign.execute_cell` when the
    simulation raises a :class:`~repro.sim.kernel.SimulationError` (deadlock
    or step-limit).  The attached post-mortem names the blocked cores and
    each queue channel's produce/consume counts, so a failing sweep cell is
    a diagnosis, not a stack trace.
    """

    benchmark: str
    design_point: str
    error_type: str
    error: str
    post_mortem: Optional[PostMortem] = field(repr=False, default=None)
    #: Full multi-line exception text.  ``error`` keeps only the first line
    #: for table footers and one-line summaries; ledger records and
    #: :meth:`describe` use this so multi-line diagnostics are never lost.
    detail: str = field(repr=False, default="")

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        body = self.detail if self.detail.strip() else self.error
        head = f"{self.benchmark}/{self.design_point}: {self.error_type}: {body}"
        if self.post_mortem is not None and self.post_mortem.render() not in head:
            head += "\n" + self.post_mortem.render()
        return head


@dataclass
class TimedOutRun:
    """A cell killed by the campaign watchdog, not by the simulator.

    Sibling of :class:`FailedRun`: the simulation neither finished nor
    diagnosed itself — it outlived its wall-clock budget and was stopped.
    When the in-process watchdog fired
    (:class:`~repro.sim.kernel.WallClockExceededError`) the attached
    post-mortem is whatever the worker managed to flush before dying; when
    the worker was so wedged the pool had to ``SIGKILL`` it
    (``hard_kill=True``) there is none.

    Wall-clock overruns depend on host load, so they are the canonical
    *transient* failure: the campaign runner retries them with backoff,
    unlike the deterministic :class:`FailedRun` diagnoses.
    """

    benchmark: str
    design_point: str
    #: Wall-clock seconds the cell was allowed.
    budget: float
    #: Wall-clock seconds observed when the run was stopped.
    elapsed: float
    error: str = "wall-clock budget exceeded"
    detail: str = field(repr=False, default="")
    post_mortem: Optional[PostMortem] = field(repr=False, default=None)
    #: True when the pool killed the worker process outright (the in-process
    #: watchdog never got to run — e.g. a hang outside the scheduler loop).
    hard_kill: bool = False

    #: Mirrors ``FailedRun.error_type`` so footers/ledgers render uniformly.
    error_type: str = "WallClockExceededError"

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        how = "killed by pool watchdog" if self.hard_kill else "in-process watchdog"
        head = (
            f"{self.benchmark}/{self.design_point}: timed out after "
            f"{self.elapsed:.2f}s (budget {self.budget:g}s, {how})"
        )
        if self.post_mortem is not None:
            head += "\n" + self.post_mortem.render()
        return head


@dataclass
class PreemptedRun:
    """A cell stopped gracefully by host preemption, with a checkpoint.

    Produced when the worker received SIGTERM while checkpointing was
    enabled: the run snapshotted at the next safe point
    (:class:`~repro.sim.checkpoint.PreemptionRequested`), the worker
    recorded this outcome, and exited cleanly.  Unlike a hard kill, nothing
    is lost — ``snapshot_path`` resumes from ``cycle``, so a preemptible
    fleet pays at most one checkpoint interval per eviction.

    Classified *transient* (the host asked us to stop; the simulation is
    healthy), and never terminal in the ledger: resume re-queues the cell,
    whose next attempt continues from the snapshot.
    """

    benchmark: str
    design_point: str
    #: Simulated cycle of the snapshot taken at preemption.
    cycle: float
    #: Snapshot file the next attempt resumes from (None = in-memory only).
    snapshot_path: Optional[str] = None
    error: str = "preempted: checkpointed and exited on SIGTERM"
    detail: str = field(repr=False, default="")

    #: Mirrors ``FailedRun.error_type`` so footers/ledgers render uniformly.
    error_type: str = "PreemptedRun"

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        where = self.snapshot_path or "<memory>"
        return (
            f"{self.benchmark}/{self.design_point}: preempted at cycle "
            f"{self.cycle:.0f} (snapshot {where}); resume continues from there"
        )


#: What one sweep cell yields: a result, a diagnosed failure, a watchdog
#: kill, or a graceful preemption.
RunOutcome = Union[RunResult, FailedRun, TimedOutRun, PreemptedRun]


def run_benchmark(
    benchmark: str,
    design_point: str,
    trip_count: Optional[int] = DEFAULT_TRIP_COUNT,
    overrides: Optional[Dict[str, int]] = None,
    trace: TraceKnob = None,
) -> RunResult:
    """Run one benchmark on one design point; raise if the run fails.

    Args:
        benchmark: Suite benchmark name (see ``BENCHMARK_ORDER``).
        design_point: Name in ``DESIGN_POINTS``.
        trip_count: Loop iterations (None = the benchmark's default).
        overrides: Declarative ``{knob: value}`` config deltas (see
            :data:`repro.core.design_points.OVERRIDE_KNOBS`).
        trace: ``True`` to record an event trace with default settings, a
            :class:`TraceConfig` for capacity/category control, or ``None``
            to leave tracing off.  The recorded buffer is returned as
            ``RunResult.trace``.
    """
    # Imported lazily: the campaign module imports this one's outcome types.
    from repro.harness.campaign import CampaignCell, run_cell

    cell = CampaignCell(
        benchmark, design_point, trip_count=trip_count, overrides=dict(overrides or {})
    )
    return run_cell(cell, trace=trace)


def run_single_threaded(
    benchmark: str, trip_count: Optional[int] = DEFAULT_TRIP_COUNT
) -> RunResult:
    """Run the original (unpartitioned) loop on one core; raise if it fails."""
    from repro.harness.campaign import CampaignCell, run_cell

    return run_cell(CampaignCell(benchmark, kind="single", trip_count=trip_count))
