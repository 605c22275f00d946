"""Resilient parallel experiment campaigns: pool, watchdog, retries, ledger.

The paper's evaluation is a large grid — benchmarks x design points x
sensitivity knobs, multiplied by the pipeline study's stage counts — and a
serial in-process sweep has two failure amplifiers: one wedged simulation
(exactly the hang mode a seeded ``QUEUE_SLOT_STALL`` fault can inject into
the EXISTING spin loop) stalls every cell behind it, and one crash throws
away every cell already computed.  This module makes each cell a *bounded,
retryable, durably-recorded unit of work*:

* **Cells** (:class:`CampaignCell`) are declarative: benchmark, design
  point, trip count, a ``{knob: value}`` overrides dict (see
  :data:`repro.core.design_points.OVERRIDE_KNOBS`), and an optional seeded
  :class:`~repro.faults.plan.FaultPlan`.  A cell's identity is a stable
  hash of that spec, so the same grid built twice names the same cells.

* **Worker pool**: up to ``jobs`` worker processes run cells concurrently
  (:func:`run_campaign` on :class:`~repro.harness.pool.WorkerPool`, the
  pool ``repro serve`` runs its misses on too).  Workers persist between
  attempts; a killed or dead worker is replaced by a fresh one.  With a
  ``queue``, the same loop hands misses to external workers instead.

* **Watchdog**: every attempt gets a wall-clock budget, enforced twice.
  The *soft* layer runs inside the worker — the scheduler's own
  :class:`~repro.sim.kernel.WallClockExceededError` check — so a timed-out
  run still flushes its post-mortem and trace tail into a structured
  :class:`~repro.harness.runner.TimedOutRun`.  The *hard* layer runs in the
  pool: a worker that outlives budget + grace (wedged outside the scheduler
  loop) is ``SIGKILL``-ed and recorded as a ``TimedOutRun(hard_kill=True)``.

* **Retries**: transient failures (timeouts, dead workers — host-side
  interference, per :mod:`repro.faults.classify`) are retried up to
  ``max_attempts`` with seeded exponential backoff; deterministic failures
  (deadlock/step-limit diagnoses, config errors) fail fast, because the
  seeded simulator guarantees a retry would fail identically.

* **Journal**: the ledger is an append-only JSONL journal of attempts
  (single ``write`` + ``fsync`` per record, so a crash can tear at most
  the final line, which replay ignores): ``cell-start`` with the spec,
  ``cell-ckpt`` per snapshot, ``cell-end`` with status, timing and error.
  Results are not in it.

* **Store**: a cell is done exactly when the result store
  (:mod:`repro.store`) holds its digest, unless the journal closed it as
  failed.  An attempt commits the way ``repro store worker`` does —
  publish, then journal — and a ledger-backed campaign without a store
  uses ``<ledger>.store``.  ``campaign resume`` answers stored cells from
  the store and re-queues the rest; ``recheck=True`` re-runs stored cells,
  which must reproduce the stored fingerprint byte for byte — the
  simulator's determinism guarantee as a checked invariant.

* **Checkpoints** (``CampaignPolicy.checkpoint_every``): workers snapshot
  the whole machine every N simulated cycles
  (:mod:`repro.sim.checkpoint`), journal each snapshot to the parent as a
  :class:`CheckpointNote` (a ``cell-ckpt`` ledger event), and resume a
  killed or preempted cell from its latest valid snapshot instead of cycle
  0 — with the resumed fingerprint bit-identical to an uninterrupted run.
  SIGTERM becomes graceful preemption: the worker checkpoints at the next
  safe point and records a :class:`~repro.harness.runner.PreemptedRun`
  (transient, never terminal, never consuming a retry attempt).  Corrupt
  snapshots are quarantined and recovery falls back to the previous
  generation or a cold start — never silently loaded.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import multiprocessing
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.design_points import apply_overrides, get_design_point, with_n_cores
from repro.dswp.partition import PartitionError
from repro.faults.classify import FailureClass, classify_outcome
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.harness.programs import lowered_program
from repro.harness.runner import (
    FailedRun,
    PreemptedRun,
    RunOutcome,
    RunResult,
    TimedOutRun,
    TraceKnob,
)
from repro.obs import runtime as _obs
from repro.obs.events import new_cid
from repro.sim.checkpoint import (
    Checkpointer,
    MachineSnapshot,
    PreemptionRequested,
    resume_run,
)
from repro.sim.kernel import SimulationError, WallClockExceededError, canonical_kernel
from repro.sim.machine import Machine
from repro.sim.program import Program
from repro.sim.stats import RunStats
from repro.trace.buffer import TraceConfig
from repro.trace.profiler import measure_hop_delays
from repro.workloads.suite import benchmark_info

__all__ = [
    "CampaignCell",
    "CampaignLedger",
    "CampaignPolicy",
    "CampaignReport",
    "CellHistory",
    "CellTask",
    "CheckpointNote",
    "LEDGER_SCHEMA_VERSION",
    "campaign_status",
    "cell_checkpoint_path",
    "cell_config",
    "execute_cell",
    "fault_plan_from_spec",
    "render_status",
    "run_campaign",
    "run_cell",
    "run_cells",
]

#: Ledger records cap multi-line diagnostics at this many characters so one
#: post-mortem cannot balloon the campaign's append-only log.
LEDGER_DETAIL_LIMIT = 8000

#: Schema version of ledger records *and* of the cell-spec dialect inside
#: them.  v1 (implicit, pre-kernel) specs had no ``kernel`` field; v2 specs
#: always carry one; v3 specs hash no design point for a single-threaded
#: cell, and v3 cells run every field they hash (v2 single-threaded and
#: pipeline cells ignored some).  ``campaign-start`` and ``cell-start``
#: records stamp this version on write, and :meth:`CampaignCell.from_spec`
#: warns (once per process) when upgrading a v1 record — the
#: content-addressed result store hashes this version into every digest,
#: so two dialects of "the same" spec can never alias one store entry.  A
#: ledger written under an older version resumes by re-running its cells:
#: replay ignores the store digests its records name (see
#: :meth:`CampaignLedger.replay`).  ``cell-end``
#: records no longer copy ``cycles``/``fingerprint``/``kernel`` from the
#: result; dropping fields needs no bump, and replay still reads an older
#: record's ``fingerprint`` as the golden value of a benchmark cell that
#: has to re-run.
LEDGER_SCHEMA_VERSION = 3

#: Cell kinds the worker-side executor understands.
CELL_KINDS = ("benchmark", "single", "pipeline")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


#: One-shot latch for the legacy-spec upgrade warning (warn once per
#: process, not once per record — an old ledger has hundreds).
_warned_legacy_spec = False


def _fault_plan_spec(plan: Optional[FaultPlan]) -> Optional[Dict[str, object]]:
    """JSON-able identity of a fault plan (seed + rules), or None."""
    if plan is None:
        return None
    rules = []
    for rule in plan.rules:
        rules.append(
            {
                "kind": rule.kind.value,
                "magnitude": rule.magnitude,
                "probability": rule.probability,
                "queue_id": rule.queue_id,
                "core_id": rule.core_id,
                "after": rule.after,
                "count": rule.count,
            }
        )
    return {"seed": plan.seed, "rules": rules}


def fault_plan_from_spec(spec: Optional[Dict[str, object]]) -> Optional[FaultPlan]:
    """Rebuild a :class:`FaultPlan` from :func:`_fault_plan_spec` output."""
    if spec is None:
        return None
    rules = tuple(
        FaultRule(
            kind=FaultKind(r["kind"]),
            magnitude=float(r["magnitude"]),
            probability=float(r["probability"]),
            queue_id=r["queue_id"],
            core_id=r["core_id"],
            after=int(r["after"]),
            count=r["count"],
        )
        for r in spec["rules"]
    )
    return FaultPlan(seed=int(spec["seed"]), rules=rules).validate()


@dataclass
class CampaignCell:
    """One bounded, retryable unit of campaign work.

    Everything a worker needs to reproduce the run is plain data: cells
    cross process boundaries by pickling and enter the ledger as JSON, and
    two cells with the same spec always share the same :meth:`key` — the
    property resume and fingerprint checking are built on.

    Kinds:

    * ``"benchmark"`` — the standard two-stage (benchmark, design point)
      cell of the paper's grids.
    * ``"single"`` — the unpartitioned single-core baseline
      (:func:`run_single_threaded`), used by Figure 9 and the scaling study.
    * ``"pipeline"`` — a K-stage pipeline on K cores (``stages=K``) with
      the scaling study's comm-trace instrumentation; per-hop delays and
      bus utilization come back in ``RunResult.extras``.

    Every kind runs through :func:`run_cell`.
    """

    benchmark: str
    #: Unused, and not hashed, by ``"single"`` cells.
    design_point: str = "HEAVYWT"
    kind: str = "benchmark"
    trip_count: Optional[int] = None
    #: Declarative config deltas, applied via OVERRIDE_KNOBS in fixed order.
    overrides: Dict[str, int] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = field(default=None, repr=False)
    #: Pipeline depth of ``kind="pipeline"`` cells; no other kind takes one.
    stages: Optional[int] = None
    #: Kernel name as given: ``"reference"`` or ``"event"``, which both name
    #: the one stepping loop (:mod:`repro.sim.kernel`).  Construction maps
    #: it to ``"reference"`` before anything hashes the spec, so either name
    #: gives the default cell's key and store digest; any other name raises.
    kernel: str = "reference"

    def __post_init__(self) -> None:
        self.kernel = canonical_kernel(self.kernel)

    def validate(self) -> "CampaignCell":
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {CELL_KINDS}")
        if self.kind == "pipeline":
            if self.stages is None or self.stages < 2:
                raise ValueError("pipeline cells need stages >= 2")
            if "n_cores" in self.overrides:
                raise ValueError(
                    "a pipeline cell runs one core per stage; it takes no n_cores override"
                )
            if benchmark_info(self.benchmark).partition_mode == "nested":
                raise ValueError(
                    f"{self.benchmark} is a loop nest; a pipeline cell needs a single-level loop"
                )
        elif self.stages is not None:
            raise ValueError(f"stages is a pipeline depth; a {self.kind!r} cell takes none")
        if self.trip_count is not None and self.trip_count <= 0:
            raise ValueError("trip_count must be positive (or None for default)")
        return self

    def spec(self) -> Dict[str, object]:
        """Canonical plain-data identity (what :meth:`key` hashes)."""
        return {
            "benchmark": self.benchmark,
            # The single-threaded baseline runs no design point.
            "design_point": None if self.kind == "single" else self.design_point,
            "kind": self.kind,
            "trip_count": self.trip_count,
            "overrides": dict(sorted(self.overrides.items())),
            "fault_plan": _fault_plan_spec(self.fault_plan),
            "stages": self.stages,
            "kernel": self.kernel,
        }

    def key(self) -> str:
        """Stable human-scannable id: ``bench/point[...]#spec-digest``."""
        digest = hashlib.sha256(
            json.dumps(self.spec(), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:8]
        label = f"{self.benchmark}/{self.design_point}"
        if self.kind == "single":
            label = f"{self.benchmark}/SINGLE"
        elif self.kind == "pipeline":
            label = f"{self.benchmark}/{self.design_point}/K{self.stages}"
        return f"{label}#{digest}"

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "CampaignCell":
        """Rebuild a cell from a ledger ``spec`` record.

        Legacy (schema v1, pre-kernel) records carry no ``kernel`` field;
        they upgrade to an explicit ``kernel="reference"`` — the only
        kernel that existed when they were written — with a one-time
        :class:`UserWarning`, so a resume against an old ledger announces
        the dialect upgrade instead of silently defaulting.
        """
        global _warned_legacy_spec
        if "kernel" not in spec and not _warned_legacy_spec:
            _warned_legacy_spec = True
            warnings.warn(
                "ledger spec predates the kernel field (schema v1); "
                "upgrading to kernel='reference' — the only kernel that "
                f"existed then.  Current ledgers are schema "
                f"v{LEDGER_SCHEMA_VERSION}.",
                UserWarning,
                stacklevel=2,
            )
        return cls(
            benchmark=spec["benchmark"],
            design_point=spec["design_point"] or "HEAVYWT",
            kind=spec.get("kind", "benchmark"),
            trip_count=spec.get("trip_count"),
            overrides=dict(spec.get("overrides") or {}),
            fault_plan=fault_plan_from_spec(spec.get("fault_plan")),
            stages=spec.get("stages"),
            kernel=spec.get("kernel", "reference"),  # pre-kernel ledgers
        ).validate()


# ----------------------------------------------------------------------
# In-process cell execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------


def cell_config(cell: CampaignCell):
    """The machine config a cell runs on, and the design point it runs.

    One order for every kind: the design point's config (HEAVYWT's for a
    single-threaded cell, whose one thread touches no queue), then the
    overrides, then one core per stage for a pipeline cell (with the comm
    trace its hop delays are folded from), then the fault plan, then
    ``validate``.  So every field a cell's digest hashes reaches the
    machine it runs on.
    """
    point = get_design_point("HEAVYWT" if cell.kind == "single" else cell.design_point)
    cfg = apply_overrides(point.build_config(), cell.overrides)
    if cell.kind == "pipeline":
        cfg = with_n_cores(cfg, cell.stages).copy(
            trace=TraceConfig(capacity=1 << 20, categories=("comm",)),
        )
    if cell.fault_plan is not None:
        cfg.faults = cell.fault_plan
    return cfg.validate(), point


def _pipeline_extras(
    cell: CampaignCell, program: Program, machine: Machine, stats: RunStats
) -> Dict[str, object]:
    """A pipeline cell's per-hop COMM-OP delays and bus utilization."""
    return {
        "stages": cell.stages,
        "hop_delays": measure_hop_delays(
            machine.trace, program.queue_endpoints, cell.benchmark, cell.design_point
        ),
        "bus_utilization": machine.mem.bus.utilization(stats.cycles),
    }


def run_cell(
    cell: CampaignCell,
    trace: TraceKnob = None,
    wall_clock_budget: Optional[float] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume_from: Optional[MachineSnapshot] = None,
    abort: Optional[Callable[[], Optional[str]]] = None,
) -> RunResult:
    """Run one cell in this process and return its result: the one executor.

    :func:`execute_cell` (so serial sweeps, pool and queue workers and
    serve misses), :func:`~repro.harness.runner.run_benchmark` and
    :func:`~repro.harness.runner.run_single_threaded` all run through it.

    ``trace`` is ``True`` (default settings) or a :class:`TraceConfig`; the
    buffer comes back as ``RunResult.trace``.  Tracing is not part of the
    cell's identity.  A pipeline cell takes none: its hop delays are folded
    from its own comm trace, which a dropping or filtering trace would cut.  ``checkpoint`` snapshots the machine periodically;
    ``resume_from`` continues a snapshotted run instead of starting at
    cycle 0, with the same stats, fingerprint and trace as an
    uninterrupted run.  ``abort`` is an external-cancellation probe
    (returns a reason string to stop, ``None`` to keep going) checked at
    the kernel's wall-clock cadence; queue workers pass their heartbeat
    fence here so a zombie stops simulating soon after losing its lease.

    Raises :class:`~repro.dswp.partition.PartitionError` for a loop that
    cannot be split into the cell's stages, the
    :class:`~repro.sim.kernel.SimulationError` subclasses, and
    :class:`~repro.sim.checkpoint.PreemptionRequested`.
    """
    cell.validate()
    lowered = lowered_program(cell.kind, cell.benchmark, cell.trip_count, cell.stages)
    cfg, point = cell_config(cell)
    if trace:
        if cell.kind == "pipeline":
            raise ValueError("a pipeline cell's hop delays come from its own comm trace")
        cfg = cfg.copy(trace=TraceConfig() if trace is True else trace)
    if resume_from is not None:
        machine = resume_from.machine
        stats = resume_run(
            resume_from,
            lowered.program,
            wall_clock_budget=wall_clock_budget,
            checkpoint=checkpoint,
            abort=abort,
        )
    else:
        machine = Machine(cfg, mechanism=point.mechanism)
        stats = machine.run(
            lowered.program,
            wall_clock_budget=wall_clock_budget,
            checkpoint=checkpoint,
            abort=abort,
        )
    result = RunResult(
        benchmark=cell.benchmark,
        design_point="SINGLE" if cell.kind == "single" else cell.design_point,
        cycles=stats.cycles,
        stats=stats,
        machine=machine,
        trace=machine.trace,
    )
    if cell.kind == "pipeline":
        result.extras.update(_pipeline_extras(cell, lowered.program, machine, stats))
    if resume_from is not None:
        result.extras["resumed_from_cycle"] = resume_from.cycle
    if checkpoint is not None:
        result.extras["checkpoints_taken"] = checkpoint.snapshots_taken
    return result


def execute_cell(
    cell: CampaignCell,
    wall_clock_budget: Optional[float] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume_from: Optional[MachineSnapshot] = None,
    abort: Optional[Callable[[], Optional[str]]] = None,
) -> RunOutcome:
    """:func:`run_cell`, with its expected failures recorded as outcomes.

    The serial fallback calls this directly; pool and queue workers call
    it inside :func:`repro.harness.pool.run_attempt`.  One code path is
    what makes pooled, queued and serial cycle counts and fingerprints
    bit-identical.

    An unpartitionable loop and a simulation error (deadlock, step limit)
    become a :class:`~repro.harness.runner.FailedRun`, a wall-clock overrun
    a :class:`~repro.harness.runner.TimedOutRun`, and a SIGTERM-driven
    preemption a :class:`~repro.harness.runner.PreemptedRun`.  Usage errors
    still raise — the worker's catch-all turns those into diagnoses with a
    full traceback.
    """
    label = cell.design_point
    if cell.kind == "single":
        label = "SINGLE"
    elif cell.kind == "pipeline":
        label = f"{cell.design_point}/K={cell.stages}"
    try:
        return run_cell(
            cell,
            wall_clock_budget=wall_clock_budget,
            checkpoint=checkpoint,
            resume_from=resume_from,
            abort=abort,
        )
    except PreemptionRequested as exc:
        return PreemptedRun(
            benchmark=cell.benchmark,
            design_point=label,
            cycle=exc.cycle,
            snapshot_path=exc.path,
        )
    except WallClockExceededError as exc:
        return TimedOutRun(
            benchmark=cell.benchmark,
            design_point=label,
            budget=exc.budget,
            elapsed=exc.elapsed,
            error=str(exc).splitlines()[0],
            detail=str(exc),
            post_mortem=exc.post_mortem,
        )
    except (PartitionError, SimulationError) as exc:
        return FailedRun(
            benchmark=cell.benchmark,
            design_point=label,
            error_type=type(exc).__name__,
            error=str(exc).splitlines()[0],
            detail=str(exc),
            post_mortem=getattr(exc, "post_mortem", None),
        )


# ----------------------------------------------------------------------
# Attempts: what crosses to a worker and back
# ----------------------------------------------------------------------


@dataclass
class CellTask:
    """One attempt of one cell, as it crosses to a worker."""

    cell: CampaignCell
    attempt: int = 1
    #: The campaign's snapshot directory when checkpointing is on.
    checkpoint_dir: Optional[str] = None
    #: ``False`` for recheck attempts, which must run from cycle 0.
    allow_resume: bool = True
    #: Correlation id of the attempt's events and spans.
    cid: Optional[str] = None


@dataclass
class CheckpointNote:
    """Mid-run journal message a worker sends after persisting a snapshot.

    Flows over the same pipe as the final outcome; the pool hands notes to
    the campaign, which appends them as ``cell-ckpt`` ledger events — how
    ``campaign status`` knows each in-flight cell's latest checkpointed
    cycle even after the worker is SIGKILLed.
    """

    cell: str
    attempt: int
    cycle: float
    path: Optional[str]
    #: Snapshots persisted so far in this attempt.
    count: int = 0


def cell_checkpoint_path(checkpoint_dir: str, cell: CampaignCell) -> str:
    """The cell's snapshot file under the campaign's checkpoint directory.

    Keys embed ``/`` (``bench/point#digest``); flatten to one filename so
    the directory stays a flat, listable set of ``<cell>.ckpt`` files (plus
    their ``.prev`` and ``.quarantined`` siblings).
    """
    return os.path.join(checkpoint_dir, cell.key().replace("/", "_") + ".ckpt")


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------


@dataclass
class CellHistory:
    """Replayed per-cell attempt facts of one ledger (results live in the store)."""

    key: str
    attempts: int = 0
    in_flight: bool = False
    terminal: bool = False
    status: Optional[str] = None
    #: Fingerprint of the first done record written before results moved to
    #: the store: the golden value if the cell has to re-run.
    fingerprint: Optional[str] = None
    #: Store digest the latest done attempt of this schema committed.
    store_digest: Optional[str] = None
    spec: Optional[Dict[str, object]] = None
    #: Latest checkpointed simulated cycle (``cell-ckpt`` events and
    #: preemption records), or None when the cell never snapshotted.
    checkpoint_cycle: Optional[float] = None
    #: Snapshot file of the latest checkpoint, when one was persisted.
    checkpoint_path: Optional[str] = None
    #: Wall-clock time of the latest checkpoint record.
    checkpoint_time: Optional[float] = None
    #: Total snapshots journalled for this cell across attempts.
    checkpoints: int = 0

    @property
    def failed(self) -> bool:
        """The journal closed the cell as failed: it stays failed."""
        return self.terminal and self.status != "done"

    def digest(self) -> Optional[str]:
        """The cell's store address, from its journal (None if unknown)."""
        if self.store_digest is None and self.spec is not None:
            from repro.store.store import cell_digest

            return cell_digest(CampaignCell.from_spec(self.spec))
        return self.store_digest


class LedgerWriteError(OSError):
    """A ledger append failed even after bounded retries.

    Subclasses :class:`OSError` and is classified *transient* by
    :mod:`repro.faults.classify`: the disk, not the campaign, is sick.
    """


#: Bounded retry schedule for ledger/checkpoint appends hitting host I/O
#: errors (ENOSPC, EIO): attempts sleep ``LEDGER_RETRY_BASE * 2**i``.
LEDGER_RETRIES = 5
LEDGER_RETRY_BASE = 0.05


class CampaignLedger:
    """Append-only JSONL record of every cell attempt of a campaign.

    Crash safety: each record is one ``os.write`` of one full line to an
    ``O_APPEND`` descriptor followed by ``fsync``, so a crash (or SIGKILL)
    can lose at most the record being written — and a torn final line is
    skipped by :meth:`read`, never mistaken for a terminal outcome.

    ``sleep`` injects the backoff delay function used by :meth:`append`'s
    ENOSPC/EIO retry loop (default :func:`time.sleep`).  Tests replace it
    with a recorder, so the retry path — schedule, fragment termination,
    eventual :class:`LedgerWriteError` — is exercised without real delays.

    ``fs`` is the OS facade from :mod:`repro.store.io` (default: the real
    filesystem); the chaos harness injects here to tear appends and drop
    fsyncs under its crash models.
    """

    def __init__(
        self,
        path: str,
        sleep: Optional[Callable[[float], None]] = None,
        fs=None,
    ) -> None:
        # Imported lazily: repro.store.__init__ pulls in dispatch, which
        # imports this module — a top-level import here would re-enter that
        # cycle while repro.harness.campaign is still half-initialised.
        from repro.store.io import resolve_fs

        self.path = str(path)
        self.fs = resolve_fs(fs)
        self._fd: Optional[int] = None
        self._sleep: Callable[[float], None] = sleep if sleep is not None else time.sleep

    def open(self) -> "CampaignLedger":
        if self._fd is None:
            self._fd = self.fs.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self

    def close(self) -> None:
        if self._fd is not None:
            self.fs.close(self._fd)
            self._fd = None

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record, riding out transient host I/O errors.

        A full or flaky disk (``ENOSPC``, ``EIO``) gets
        :data:`LEDGER_RETRIES` attempts with exponential backoff before the
        append surfaces as a :class:`LedgerWriteError` — an :class:`OSError`
        subclass the failure classifier treats as transient, so one bad
        write degrades a single cell attempt instead of crashing the
        campaign loop.
        """
        if self._fd is None:
            self.open()
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        last: Optional[OSError] = None
        for i in range(LEDGER_RETRIES):
            try:
                self.fs.write(self._fd, line)
                self.fs.fsync(self._fd)
                return
            except OSError as exc:
                last = exc
                # Terminate any partially-written fragment so the retried
                # record starts on its own line; replay skips the fragment.
                try:
                    self.fs.write(self._fd, b"\n")
                except OSError:
                    pass
                self._sleep(LEDGER_RETRY_BASE * (2**i))
        raise LedgerWriteError(
            f"ledger append to {self.path} failed after "
            f"{LEDGER_RETRIES} attempts: {last}"
        ) from last

    # -- replay ---------------------------------------------------------

    @staticmethod
    def read(path: str) -> List[Dict[str, object]]:
        """Parse every intact record; torn lines are dropped.

        A torn line is either the crash tail (process died mid-append) or
        an interior fragment left by an append that hit a partial write
        (``ENOSPC``) and was retried — the retry re-wrote the full record on
        its own line, so skipping the fragment loses nothing.
        """
        records: List[Dict[str, object]] = []
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        if lines and lines[-1]:
            # No trailing newline: the final line's append never finished.
            # A record only exists once its newline landed — even if the
            # truncation happens to leave parseable JSON.
            lines.pop()
        for line in lines:
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records

    @staticmethod
    def replay(path: str) -> Dict[str, CellHistory]:
        """Fold a ledger into per-cell state keyed by cell key.

        Records of a campaign whose ``campaign-start`` names an older
        :data:`LEDGER_SCHEMA_VERSION` name no store digest: their entries
        were addressed under the older spec dialect, so their cells re-run.
        Their histories are filed under today's keys (a v2 key hashed a
        single-threaded cell's design point).
        """
        histories: Dict[str, CellHistory] = {}
        schema = LEDGER_SCHEMA_VERSION
        rekey: Dict[str, str] = {}
        for rec in CampaignLedger.read(path):
            event = rec.get("event")
            if event == "campaign-start":
                schema = rec.get("schema", 1)
            if event not in ("cell-start", "cell-end", "cell-ckpt"):
                continue
            key = rec["cell"]
            if schema != LEDGER_SCHEMA_VERSION and event == "cell-start" and rec.get("spec"):
                rekey[key] = CampaignCell.from_spec(rec["spec"]).key()
            key = rekey.get(key, key)
            hist = histories.setdefault(key, CellHistory(key=key))
            if event == "cell-ckpt":
                hist.checkpoints += 1
                hist.checkpoint_cycle = rec.get("cycle")
                hist.checkpoint_path = rec.get("path")
                hist.checkpoint_time = rec.get("time")
                continue
            hist.attempts = max(hist.attempts, int(rec.get("attempt", 0)))
            if event == "cell-start":
                hist.in_flight = True
                if rec.get("spec"):
                    hist.spec = rec["spec"]
            else:
                hist.in_flight = False
                if rec.get("status") == "preempted":
                    # A preemption is the host's doing, not the cell's: give
                    # the attempt back so routine evictions on preemptible
                    # fleets can never exhaust a cell's retry budget.
                    hist.attempts = max(0, int(rec.get("attempt", 1)) - 1)
                    if rec.get("cycle") is not None:
                        hist.checkpoint_cycle = rec.get("cycle")
                        hist.checkpoint_time = rec.get("time")
                    if rec.get("snapshot_path"):
                        hist.checkpoint_path = rec.get("snapshot_path")
                if rec.get("terminal"):
                    hist.terminal = True
                    hist.status = rec.get("status")
                if rec.get("status") == "done":
                    if schema == LEDGER_SCHEMA_VERSION:
                        hist.store_digest = rec.get("store_digest", hist.store_digest)
                    # Only pre-v3 records carry a fingerprint, and v3 changed
                    # what single-threaded and pipeline cells run.
                    kind = (hist.spec or {}).get("kind", "benchmark")
                    if hist.fingerprint is None and kind == "benchmark":
                        hist.fingerprint = rec.get("fingerprint")
        return histories


def _outcome_record(
    cell: CampaignCell,
    attempt: int,
    outcome: RunOutcome,
    terminal: bool,
    elapsed: float,
) -> Dict[str, object]:
    rec: Dict[str, object] = {
        "event": "cell-end",
        "cell": cell.key(),
        "attempt": attempt,
        "time": time.time(),
        "elapsed": round(elapsed, 4),
        "terminal": terminal,
    }
    if isinstance(outcome, RunResult):
        rec["status"] = "done"
        # Perf-trajectory fields (host-side observability; never part of
        # the fingerprint, so recheck ignores them by construction).
        if outcome.stats.host_seconds > 0:
            rec["host_seconds"] = round(outcome.stats.host_seconds, 4)
            rec["simulated_cycles_per_sec"] = round(
                outcome.stats.simulated_cycles_per_sec, 1
            )
        if outcome.extras.get("resumed_from_cycle") is not None:
            rec["resumed_from_cycle"] = outcome.extras["resumed_from_cycle"]
        if outcome.extras.get("checkpoints_taken"):
            rec["checkpoints_taken"] = outcome.extras["checkpoints_taken"]
    elif isinstance(outcome, PreemptedRun):
        rec.update(
            status="preempted",
            transient=True,
            error_type=outcome.error_type,
            error=outcome.error,
            cycle=outcome.cycle,
            snapshot_path=outcome.snapshot_path,
        )
    elif isinstance(outcome, TimedOutRun):
        rec.update(
            status="timeout",
            transient=True,
            error_type=outcome.error_type,
            error=outcome.error,
            budget=outcome.budget,
            hard_kill=outcome.hard_kill,
            detail=outcome.detail[:LEDGER_DETAIL_LIMIT],
        )
    else:
        transient = classify_outcome(outcome) is FailureClass.TRANSIENT
        rec.update(
            status={
                "WorkerDiedError": "worker-died",
                "FingerprintMismatchError": "fingerprint-mismatch",
            }.get(outcome.error_type, "failed"),
            transient=transient,
            error_type=outcome.error_type,
            error=outcome.error,
            detail=outcome.detail[:LEDGER_DETAIL_LIMIT],
        )
    return rec


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass
class CampaignPolicy:
    """Execution policy of one campaign."""

    #: Maximum concurrently running worker processes.
    jobs: int = 1
    #: Wall-clock seconds one cell attempt may take (None = no watchdog).
    wall_clock_budget: Optional[float] = None
    #: Total attempts per cell (1 = no retries); only transient failures
    #: consume extra attempts.
    max_attempts: int = 3
    #: First-retry backoff in seconds; doubles per subsequent attempt.
    backoff_base: float = 0.25
    #: Seed of the deterministic backoff jitter.
    backoff_seed: int = 0
    #: Extra seconds past the soft budget before the pool SIGKILLs a worker.
    kill_grace: float = 5.0
    #: Re-run stored cells and verify their fingerprints against the
    #: store's instead of answering them from it (golden-regression mode).
    recheck: bool = False
    #: Simulated cycles between worker checkpoints (None = checkpointing
    #: off).  With it on, a killed or preempted cell resumes from its latest
    #: valid snapshot instead of cycle 0 — bit-identically, per the
    #: checkpoint module's differential invariant.
    checkpoint_every: Optional[int] = None
    #: Directory for per-cell snapshot files.  ``None`` derives
    #: ``<ledger>.ckpt/`` next to the campaign ledger (checkpointing without
    #: a ledger then requires an explicit directory).
    checkpoint_dir: Optional[str] = None

    def validate(self) -> "CampaignPolicy":
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ValueError("wall_clock_budget must be positive (or None)")
        if self.backoff_base < 0 or self.kill_grace < 0:
            raise ValueError("backoff_base and kill_grace must be non-negative")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")
        return self

    def resolve_checkpoint_dir(self, ledger_path: Optional[str]) -> Optional[str]:
        """Effective snapshot directory for this campaign, or ``None``."""
        if self.checkpoint_every is None:
            return None
        if self.checkpoint_dir is not None:
            return self.checkpoint_dir
        if ledger_path is not None:
            return str(ledger_path) + ".ckpt"
        return None

    def backoff(self, cell_key: str, attempt: int) -> float:
        """Seeded exponential backoff before retry number ``attempt``."""
        rng = random.Random(
            f"{self.backoff_seed}:{cell_key}:{attempt}".encode("utf-8")
        )
        return self.backoff_base * (2 ** (attempt - 1)) * (0.75 + 0.5 * rng.random())

    def retry_delay(
        self, cell_key: str, attempt: int, outcome: RunOutcome
    ) -> Optional[float]:
        """Backoff before retrying an outcome, or None if it is final: only
        transient failures retry — a preemption always, others while
        attempts remain.  Campaigns and ``repro serve`` share this rule."""
        if classify_outcome(outcome) is not FailureClass.TRANSIENT:
            return None
        if not isinstance(outcome, PreemptedRun) and attempt >= self.max_attempts:
            return None
        return self.backoff(cell_key, attempt)


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` call produced."""

    #: Final outcome per cell key: every cell run in this call, and every
    #: cell answered from the store.
    outcomes: Dict[str, RunOutcome] = field(default_factory=dict)
    #: Cells skipped because the journal already closed them as failed.
    skipped: Dict[str, CellHistory] = field(default_factory=dict)
    #: Attempts consumed per cell key in this call.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Cell keys whose result contradicted a golden or stored fingerprint.
    mismatches: List[str] = field(default_factory=list)
    #: Cell keys answered from the result store without running a worker.
    store_hits: List[str] = field(default_factory=list)
    retries: int = 0

    @property
    def n_done(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.ok)

    @property
    def n_failed(self) -> int:
        return len(self.failures()) + len(self.skipped)

    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes.values() if not o.ok]

    def summary(self) -> str:
        parts = [
            f"{self.n_done} done",
            f"{self.n_failed} failed",
            f"{len(self.skipped)} skipped (failed earlier)",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.store_hits:
            parts.insert(1, f"{len(self.store_hits)} from store")
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} FINGERPRINT MISMATCH(ES)")
        return ", ".join(parts)


def _bump(name: str, **labels: str) -> None:
    state = _obs.get_state()
    if state is not None:
        state.registry.counter(name, **labels).inc()


def _standing(cell: CampaignCell, hist: Optional[CellHistory], store, recheck: bool):
    """What one cell already has, from its journal and a store lookup:
    ``(entry, golden)``.  ``entry`` answers the cell without running it;
    ``golden`` is the fingerprint a run must reproduce — the stored one
    under ``recheck``, else one a done record carried before results moved
    to the store.  Cells the journal closed as failed are not asked."""
    entry = None
    if store is not None:
        from repro.store.store import cell_digest

        entry = store.get(cell_digest(cell))
    if entry is None:
        return None, hist.fingerprint if hist is not None else None
    return (None, entry.fingerprint) if recheck else (entry, None)


def _commit(
    cell: CampaignCell, attempt: int, outcome: RunOutcome, elapsed: float,
    golden: Optional[str], cid: Optional[str], retry: bool, *, store,
    ledger: Optional[CampaignLedger], report: CampaignReport, policy: CampaignPolicy,
    campaign_id: str, note: Callable[[str], None],
) -> Optional[float]:
    """Commit one finished attempt the way ``run_worker`` does: publish, then
    journal the ``cell-end``; then the obs event and the report.

    A result contradicting its golden fingerprint or a stored entry fails
    as ``FingerprintMismatchError``.  A result the store cannot take (an
    ``OSError``: a full or failing disk) is not done: a transient failure.
    Returns the backoff before the retry the caller must schedule, or
    ``None`` when the outcome is final (always so unless ``retry``).
    """
    key = cell.key()
    report.attempts[key] = attempt
    # A queue worker publishes before the campaign sees its result.
    digest = outcome.extras.get("store_digest") if outcome.ok else None
    error: Optional[Tuple[str, str]] = None
    if outcome.ok and golden is not None and outcome.fingerprint() != golden:
        error = (
            "FingerprintMismatchError",
            f"recorded fingerprint {golden} but re-run produced "
            f"{outcome.fingerprint()} — determinism violated",
        )
    elif outcome.ok and digest is None and store is not None:
        from repro.store.store import StoreError, publish

        try:
            provenance = {"campaign": campaign_id, "attempt": attempt}
            digest = publish(store, cell, outcome, provenance, cid=cid)[0].digest
        except StoreError as exc:  # a conflicting entry: determinism violated
            error = ("FingerprintMismatchError", str(exc))
        except OSError as exc:
            error = ("OSError", f"result not published: {exc}")
    if error is not None:
        if error[0] == "FingerprintMismatchError":
            report.mismatches.append(key)
        outcome = FailedRun(benchmark=outcome.benchmark, design_point=outcome.design_point,
                            error_type=error[0], error=error[1])
    delay = policy.retry_delay(key, attempt, outcome)
    if ledger is not None:
        rec = _outcome_record(cell, attempt, outcome, delay is None, elapsed)
        if outcome.ok:
            rec["store_digest"] = digest
        ledger.append(rec)
    retrying = retry and delay is not None
    if retrying:
        report.retries += 1
        _bump("repro_campaign_retries_total")
        note(f"  retry {key} (attempt {attempt} {outcome.error_type}; backoff {delay:.2f}s)")
    else:
        report.outcomes[key] = outcome
        state = "done" if outcome.ok else f"FAILED ({outcome.error_type})"
        if isinstance(outcome, PreemptedRun):
            state = f"preempted at cycle {outcome.cycle:.0f} (resumable)"
        note(f"  {key} {state} [{elapsed:.2f}s, attempt {attempt}]")
    if _obs.active():
        status = "retry" if retrying else ("done" if outcome.ok else "failed")
        if not retrying:
            _bump("repro_campaign_cells_total", status=status)
        _obs.emit("campaign.cell.end", cid=cid, cell=key, attempt=attempt, status=status,
                  error_type=getattr(outcome, "error_type", None), elapsed_s=round(elapsed, 6))
    return delay if retrying else None


def run_campaign(
    cells: Iterable[CampaignCell],
    policy: Optional[CampaignPolicy] = None,
    ledger_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
    campaign_id: Optional[str] = None,
    queue=None,
) -> CampaignReport:
    """Execute a campaign of cells on the worker pool or a work queue.

    Args:
        cells: The declarative grid.  Cell keys must be unique.
        policy: Pool size, watchdog budget, retry policy (default: serial
            single-job pool, no watchdog, 3 attempts).
        ledger_path: JSONL attempt journal.  ``None`` runs without one
            (used by the figure functions' ``jobs=`` path).
        resume: Replay the journal first: cells it closed as failed are
            skipped, in-flight cells are re-queued with their attempt
            counter preserved.  Without ``resume``, an existing non-empty
            ledger is an error — refusing to silently interleave two
            campaigns in one file.
        progress: Optional line sink for human-readable progress.
        store: Optional :class:`~repro.store.ResultStore` (or a path to
            one); a campaign with a ledger defaults to ``<ledger>.store``.
            The store is the only record of results: a cell whose digest
            is stored is answered from it (journalled once as a done
            ``cell-end`` with ``store_hit``, never simulated), and an
            attempt commits by publishing its result, so a second campaign
            over the same grid performs zero re-simulations.  Under
            ``policy.recheck`` stored cells re-run instead and must
            reproduce the stored fingerprints.
        campaign_id: Provenance label stamped into store entries this
            campaign publishes (default: the ledger path or ``adhoc``).
        queue: Optional :class:`~repro.store.dispatch.WorkQueue`: enqueue
            store misses for ``repro store worker`` processes instead of
            simulating them; an attempt waits up to ``wall_clock_budget``
            for its cell's fate.  Needs ``store``; no checkpointing.

    Returns a :class:`CampaignReport`; raises nothing for cell failures —
    they are data (``report.outcomes``) — but propagates KeyboardInterrupt
    after stopping the pool, leaving the ledger resumable.
    """
    policy = (policy or CampaignPolicy()).validate()
    if store is None and ledger_path is not None:
        store = str(ledger_path) + ".store"
    if queue is not None and store is None:
        raise ValueError("a queue-backed campaign needs a store")
    if queue is not None and policy.checkpoint_every is not None:
        raise ValueError("checkpointing needs local workers, not a queue")
    if campaign_id is None:
        campaign_id = str(ledger_path) if ledger_path is not None else "adhoc"
    cells = [c.validate() for c in cells]
    keys = [c.key() for c in cells]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate campaign cell key(s): {sorted(dup)}")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    # Observability (repro.obs): one correlation id per cell — stable
    # across retries, so every attempt of a cell chains under one cid —
    # plus campaign.* events and retry/attempt counters.  Every helper
    # no-ops unless obs is configured in this process.
    cell_cids: Dict[str, str] = {}

    def cell_cid(key: str) -> Optional[str]:
        if not _obs.active():
            return None
        cid = cell_cids.get(key)
        if cid is None:
            cid = cell_cids[key] = new_cid()
        return cid

    report = CampaignReport()
    histories: Dict[str, CellHistory] = {}
    ledger: Optional[CampaignLedger] = None
    if ledger_path is not None:
        exists = os.path.exists(ledger_path) and os.path.getsize(ledger_path) > 0
        if exists and not resume:
            raise FileExistsError(
                f"ledger {ledger_path!r} already has records; use resume "
                "(or point the campaign at a fresh ledger)"
            )
        if resume and exists:
            histories = CampaignLedger.replay(ledger_path)
        ledger = CampaignLedger(ledger_path).open()
    if store is not None and not hasattr(store, "get"):
        from repro.store.store import ResultStore

        store = ResultStore(str(store))
    checkpoint_dir = policy.resolve_checkpoint_dir(ledger_path)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    # Seed the run queue from what each cell already has: failures the
    # journal closed stay closed, stored cells are answered from the store,
    # the rest run (in-flight cells keep their attempt counter so retries
    # stay bounded across crashes).
    heap: List[Tuple[float, int, CampaignCell, int]] = []
    golden: Dict[str, str] = {}
    store_hit_records: List[Tuple[CampaignCell, object]] = []
    now = time.monotonic()
    for seq, cell in enumerate(cells):
        key = cell.key()
        hist = histories.get(key)
        if hist is not None and hist.failed:
            report.skipped[key] = hist
            continue
        entry, gold = _standing(cell, hist, store, policy.recheck)
        if gold is not None:
            golden[key] = gold
        if entry is not None:
            from repro.store.store import result_from_entry

            report.outcomes[key] = result_from_entry(entry)
            report.store_hits.append(key)
            store_hit_records.append((cell, entry))
            continue
        attempt = (hist.attempts if hist is not None else 0) + 1
        heapq.heappush(heap, (now, seq, cell, attempt))
    seq_counter = len(cells)

    if ledger is not None:
        ledger.append(
            {
                "event": "campaign-start",
                "schema": LEDGER_SCHEMA_VERSION,
                "time": time.time(),
                "resume": resume,
                "n_cells": len(cells),
                "n_skipped": len(report.skipped),
                "n_store_hits": len(report.store_hits),
                "store": getattr(store, "root", None),
                "queue": getattr(queue, "root", None),
                "policy": {
                    "jobs": policy.jobs,
                    "wall_clock_budget": policy.wall_clock_budget,
                    "max_attempts": policy.max_attempts,
                    "recheck": policy.recheck,
                },
            }
        )
        for cell, entry in store_hit_records:
            hist = histories.get(cell.key())
            if hist is not None and hist.terminal:
                continue  # the journal already holds the cell's done record
            # One terminal record per store hit: the cell is done, and the
            # record says it was never simulated and names its entry.
            ledger.append({"event": "cell-end", "cell": cell.key(), "attempt": 0,
                           "time": time.time(), "elapsed": 0.0, "terminal": True,
                           "status": "done", "store_hit": True, "store_digest": entry.digest})

    if _obs.active():
        _obs.emit(
            "campaign.start",
            campaign=campaign_id,
            n_cells=len(cells),
            n_skipped=len(report.skipped),
            n_store_hits=len(report.store_hits),
        )
        for cell, entry in store_hit_records:
            _bump("repro_campaign_store_hits_total")
            _obs.emit(
                "store.hit",
                cid=cell_cid(cell.key()),
                cell=cell.key(),
                digest=entry.digest,
                fingerprint=entry.fingerprint,
                campaign=campaign_id,
            )

    # The farm: local worker processes, or the shared work queue.
    if queue is not None:
        from repro.store.dispatch import QueueBackend

        backend = QueueBackend(store, queue, policy.wall_clock_budget)
    else:
        from repro.harness.pool import WorkerPool

        backend = WorkerPool(policy, multiprocessing.get_context())
    draining = False
    start_times: Dict[str, float] = {}

    def handle_note(msg: CheckpointNote) -> None:
        """Journal one worker checkpoint into the ledger (``cell-ckpt``)."""
        if ledger is not None:
            ledger.append(
                {
                    "event": "cell-ckpt",
                    "cell": msg.cell,
                    "attempt": msg.attempt,
                    "cycle": msg.cycle,
                    "path": msg.path,
                    "count": msg.count,
                    "time": time.time(),
                }
            )

    commit = functools.partial(
        _commit, store=store, ledger=ledger, report=report, policy=policy,
        campaign_id=campaign_id, note=note,
    )

    def finish(task: CellTask, outcome: RunOutcome) -> None:
        nonlocal seq_counter
        key = task.cell.key()
        elapsed = time.monotonic() - start_times.pop(key)
        delay = commit(task.cell, task.attempt, outcome, elapsed, golden.get(key), task.cid,
                       not draining)
        if delay is not None:
            # Preemptions are the host's doing: a retry repeats the SAME
            # attempt number, so evictions never exhaust a retry budget.
            again = task.attempt if isinstance(outcome, PreemptedRun) else task.attempt + 1
            heapq.heappush(heap, (time.monotonic() + delay, seq_counter, task.cell, again))
            seq_counter += 1

    try:
        while heap or backend.busy:
            now = time.monotonic()
            # Launch everything ready while the farm has capacity.
            while heap and backend.has_capacity() and heap[0][0] <= now:
                _, _, cell, attempt = heapq.heappop(heap)
                key = cell.key()
                start_times[key] = time.monotonic()
                if _obs.active():
                    _bump("repro_campaign_attempts_total")
                    _obs.emit(
                        "campaign.cell.start",
                        cid=cell_cid(key),
                        cell=key,
                        attempt=attempt,
                        kernel=cell.kernel,
                    )
                if ledger is not None:
                    ledger.append({"event": "cell-start", "cell": key, "attempt": attempt,
                                   "time": time.time(), "schema": LEDGER_SCHEMA_VERSION,
                                   "spec": cell.spec()})
                # Recheck re-runs must cover the whole run from cycle 0 —
                # resuming would verify only the tail.
                task = CellTask(
                    cell, attempt, checkpoint_dir, allow_resume=key not in golden, cid=cell_cid(key)
                )
                backend.start(task, on_note=handle_note)

            if not backend.busy:
                # Farm idle but a backoff delay is pending: sleep it off.
                if heap:
                    time.sleep(max(0.0, heap[0][0] - time.monotonic()))
                continue

            # Wait for attempts to end, or a queued retry to become ready.
            timeout = 0.5
            if heap:
                timeout = min(timeout, max(0.0, heap[0][0] - time.monotonic()))
            for task, outcome in backend.collect(timeout=timeout):
                finish(task, outcome)
    finally:
        draining = True
        # Graceful preemption: SIGTERM first, so checkpoint-enabled workers
        # snapshot at the next safe point and report a PreemptedRun;
        # anything still running after the grace window is killed (its
        # cell-start stays unmatched, so resume re-queues it).
        for task, outcome in backend.close(grace=max(policy.kill_grace, 0.1)):
            finish(task, outcome)
        if ledger is not None:
            ledger.append(
                {
                    "event": "campaign-end",
                    "time": time.time(),
                    "complete": not heap and not backend.busy,
                    "n_done": report.n_done,
                    "n_failed": report.n_failed,
                    "retries": report.retries,
                }
            )
            ledger.close()
        if _obs.active():
            _obs.emit(
                "campaign.end",
                campaign=campaign_id,
                complete=not heap and not backend.busy,
                n_done=report.n_done,
                n_failed=report.n_failed,
                retries=report.retries,
            )
    return report


def run_cells(
    cells: Iterable[CampaignCell],
    jobs: int = 1,
    policy: Optional[CampaignPolicy] = None,
    ledger_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, RunOutcome]:
    """Run cells and return ``{cell key: outcome}`` — the figure-facing API.

    ``jobs == 1`` (the default) executes serially in-process via
    :func:`execute_cell`, with no pool, no ledger, and no retry machinery —
    the exact fallback the figure functions always had.  ``jobs > 1``
    dispatches through :func:`run_campaign`.  Both paths run the same
    executor, so cycles and fingerprints are identical either way.  Both
    reject an invalid cell before any cell runs.
    """
    cells = [cell.validate() for cell in cells]
    if jobs <= 1 and ledger_path is None:
        return {cell.key(): execute_cell(cell) for cell in cells}
    pool_policy = policy or CampaignPolicy()
    pool_policy.jobs = max(1, jobs)
    report = run_campaign(
        cells, pool_policy, ledger_path=ledger_path, progress=progress
    )
    return report.outcomes


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------


def _checkpoint_entry(hist: CellHistory, now: float) -> Optional[Dict[str, object]]:
    """Per-cell checkpoint progress: cycle, snapshot path validity, and age.

    Age prefers the snapshot file's mtime (survives ledger truncation and
    reflects the atomic rename, not the journal note); the ledger record
    time is the fallback when the file is gone.
    """
    if hist.checkpoint_cycle is None and hist.checkpoints == 0:
        return None
    entry: Dict[str, object] = {
        "cycle": hist.checkpoint_cycle,
        "count": hist.checkpoints,
        "path": hist.checkpoint_path,
        "on_disk": False,
        "age": None,
    }
    if hist.checkpoint_path is not None and os.path.exists(hist.checkpoint_path):
        entry["on_disk"] = True
        try:
            entry["age"] = max(0.0, now - os.path.getmtime(hist.checkpoint_path))
        except OSError:
            entry["age"] = None
    elif hist.checkpoint_time is not None:
        entry["age"] = max(0.0, now - hist.checkpoint_time)
    return entry


def _journal_store(ledger_path: str):
    """The store a ledger's latest campaign named (``<ledger>.store`` if it
    named none), or None when that directory does not exist."""
    root = str(ledger_path) + ".store"
    for rec in CampaignLedger.read(ledger_path):
        if rec.get("event") == "campaign-start" and rec.get("store"):
            root = rec["store"]
    if not os.path.isdir(root):
        return None
    from repro.store.store import ResultStore

    return ResultStore(root)


def campaign_status(ledger_path: str) -> Dict[str, object]:
    """Summarize a campaign: counts by status, in-flight cells, checkpoints.

    A cell is ``done`` exactly when the store the ledger's latest campaign
    used holds its digest, unless the journal closed it as failed (its
    journalled status counts).  Resume re-runs cells counted ``unstored``
    (journalled done, entry gone) or ``interrupted`` (awaiting a retry).

    Returns a plain dict (CLI-renderable and test-assertable):
    ``{"cells": N, "by_status": {...}, "in_flight": [...], "complete": bool,
    "attempts": total,
    "checkpoints": {key: {"cycle", "count", "path", "on_disk", "age"}}}``.
    The ``checkpoints`` map holds every cell that journalled a snapshot —
    the recovery story of each in-flight or preempted cell at a glance:
    which cycle it would resume from and how stale that snapshot is.
    """
    histories = CampaignLedger.replay(ledger_path)
    store = _journal_store(ledger_path)
    by_status: Dict[str, int] = {}
    in_flight: List[str] = []
    checkpoints: Dict[str, Dict[str, object]] = {}
    attempts = 0
    now = time.time()
    for hist in histories.values():
        attempts += hist.attempts
        digest = hist.digest() if store is not None else None
        if hist.failed:
            status = hist.status or "?"
        elif digest is not None and store.contains(digest):
            status = "done"
        elif hist.in_flight:
            in_flight.append(hist.key)
            status = None
        else:
            status = "unstored" if hist.terminal else "interrupted"
        if status is not None:
            by_status[status] = by_status.get(status, 0) + 1
        # Checkpoint progress matters for cells that may still resume; a
        # successfully-done attempt's snapshots were already discarded.
        if not (hist.terminal and hist.status == "done"):
            ckpt = _checkpoint_entry(hist, now)
            if ckpt is not None:
                checkpoints[hist.key] = ckpt
    settled = by_status.get("done", 0) + sum(h.failed for h in histories.values())
    return {
        "cells": len(histories),
        "by_status": by_status,
        "in_flight": sorted(in_flight),
        "complete": bool(histories) and settled == len(histories),
        "attempts": attempts,
        "checkpoints": checkpoints,
    }


def _render_age(age: Optional[float]) -> str:
    if age is None:
        return "age unknown"
    if age < 120:
        return f"{age:.0f}s old"
    if age < 7200:
        return f"{age / 60:.1f}min old"
    return f"{age / 3600:.1f}h old"


def render_status(status: Dict[str, object]) -> str:
    """Human-readable one-screen rendering of :func:`campaign_status`."""
    checkpoints: Dict[str, Dict[str, object]] = status.get("checkpoints", {})

    def ckpt_suffix(key: str) -> str:
        entry = checkpoints.get(key)
        if entry is None:
            return ""
        cycle = entry.get("cycle")
        where = "on disk" if entry.get("on_disk") else "journalled"
        return (
            f" [ckpt cycle {cycle:.0f}, {where}, {_render_age(entry.get('age'))}]"
            if cycle is not None
            else ""
        )

    lines = [f"cells recorded : {status['cells']}"]
    for name, count in sorted(status["by_status"].items()):
        lines.append(f"  {name:<20s} {count}")
    lines.append(f"attempts       : {status['attempts']}")
    lines.append(f"in flight      : {len(status['in_flight'])}")
    for key in status["in_flight"]:
        lines.append(f"  {key} (re-queued on resume){ckpt_suffix(key)}")
    resumable = [k for k in sorted(checkpoints) if k not in status["in_flight"]]
    if resumable:
        lines.append(f"checkpointed   : {len(resumable)}")
        for key in resumable:
            lines.append(f"  {key}{ckpt_suffix(key)}")
    lines.append(f"complete       : {'yes' if status['complete'] else 'no'}")
    return "\n".join(lines)
