"""Deterministic full-machine checkpoints: snapshot, persist, resume.

A long simulation that dies — preempted worker, OOM kill, watchdog SIGKILL —
used to restart from cycle 0.  This module makes the whole machine state a
*resumable value*: cores (stats, scoreboards, unit pools), software/hardware
queue channels, the OzQ/bus/cache hierarchy, mechanism state, the seeded
fault-plan counters, and the trace ring buffer are serialized together with
just enough scheduler state to continue the co-simulation exactly where it
stopped.

**Safe points.**  Core timing models run as Python generators, which cannot
be serialized mid-frame.  Instead, checkpoints are taken only at *global
safe points*: moments between scheduler steps when every live core generator
is suspended at an instruction-boundary heartbeat of
:meth:`~repro.sim.core.CoreModel.run` (``CoreModel.at_safe_point``).  At such
a suspension the generator's entire hidden state is its instruction cursor
(``instructions_run``), so a restored machine rebuilds each core's generator
by replaying the thread's (deterministic) instruction *stream* — not the
simulation — up to the cursor and continuing.  The scheduler's min-timestamp
policy is never perturbed: the checkpointer only observes, so enabling it
cannot change :class:`~repro.sim.stats.RunStats` or the trace stream, and a
kill → restore → continue sequence is bit-identical to never having crashed.

**Corruption safety.**  Snapshots are written to a temporary file, fsynced,
and atomically renamed into place; the previous snapshot is rotated to
``<path>.prev`` first.  The on-disk format carries a magic, a format
version, and CRC32s over both the metadata and the payload, so a torn,
truncated, or bit-flipped snapshot is *detected* (:func:`read_snapshot`
raises :class:`SnapshotCorruptError`), *quarantined*
(:func:`quarantine_snapshot` renames it aside for forensics), and recovery
falls back to the previous snapshot — or cycle 0 — never silently loading
garbage state (:func:`recover_snapshot`).

**Preemption.**  :meth:`Checkpointer.request_preempt` is async-signal-safe
(it only sets a flag): a SIGTERM handler can call it, the run checkpoints at
the next safe point, and :class:`PreemptionRequested` unwinds out of
``Machine.run`` with the snapshot attached — a preemptible worker loses at
most one checkpoint interval.

Typical use::

    from repro import Checkpointer, resume_run

    ckpt = Checkpointer(every=20_000, path="run.ckpt")
    try:
        stats = machine.run(program, checkpoint=ckpt)
    except PreemptionRequested:
        ...  # exit cleanly; a later process picks the snapshot up

    recovered = recover_snapshot("run.ckpt")
    if recovered is not None:
        stats = resume_run(recovered.snapshot, rebuild_program())
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.kernel.base import CoreRunner, SimKernel, _State
from repro.sim.stats import RunStats

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "MachineSnapshot",
    "PreemptionRequested",
    "RecoveredSnapshot",
    "RunnerSnapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "inspect_snapshot",
    "quarantine_snapshot",
    "read_snapshot",
    "recover_snapshot",
    "resume_run",
    "write_snapshot",
]

#: File magic: 8 bytes, never reused across incompatible layouts.
CHECKPOINT_MAGIC = b"RPROCKPT"

#: Current snapshot format version.  Readers reject anything else — a
#: version bump is how incompatible machine-state changes stay safe.
#: v2: the pickled machine's shared bus always holds an ``IndexedTimeline``
#: (v1 reference-kernel snapshots carried the retired list calendar).
#: v3: slotted access records and cache lines, build-time bindings on the
#: core, memory system, bus and queue layouts (a v2 machine lacks them).
#: v4: build-time bindings of each core's L2-port and OzQ entry pools and
#: cache set tables on the memory system, of the channel table and memory
#: access methods on the mechanisms (a v3 machine lacks them).
#: v5: ``MachineConfig`` no longer carries a ``kernel`` name (one stepping
#: loop remains).
#: v6: ``StreamCacheConfig`` and ``TraceConfig`` no longer carry an
#: ``enabled`` flag.
#: ``tests/sim/test_snapshot_layout.py`` records the pickled class layout of
#: each version: a layout change fails it until the version is bumped.
CHECKPOINT_VERSION = 6

#: Suffix of the rotated previous snapshot (the fallback generation).
PREV_SUFFIX = ".prev"

#: Suffix quarantined (corrupt) snapshots are renamed to.
QUARANTINE_SUFFIX = ".quarantined"

_HEADER = struct.Struct("<8sII")  # magic, version, meta length
_META_TAIL = struct.Struct("<I")  # CRC32 of the meta block
_PAYLOAD_HEAD = struct.Struct("<QI")  # payload length, CRC32 of payload


class SnapshotError(RuntimeError):
    """Base class for checkpoint/restore failures."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file failed validation (magic/version/length/CRC/decode).

    Callers must treat the file as untrusted: quarantine it and fall back
    to an older snapshot or a cold start.  Never retried in place.
    """


class PreemptionRequested(Exception):
    """A graceful preemption completed: the run checkpointed and unwound.

    Not a :class:`~repro.sim.kernel.SimulationError` — the simulation is
    healthy; the *host* asked it to stop.  Carries everything a worker needs
    to report a clean hand-off.
    """

    def __init__(self, cycle: float, path: Optional[str], snapshot: "MachineSnapshot") -> None:
        super().__init__(
            f"preempted at cycle {cycle:.0f}"
            + (f"; snapshot written to {path}" if path else "")
        )
        self.cycle = cycle
        self.path = path
        self.snapshot = snapshot


@dataclass
class RunnerSnapshot:
    """Serializable state of one scheduler runner at a safe point."""

    core_id: int
    time: float
    done: bool
    steps: int
    last_progress_step: int
    last_progress_time: float


@dataclass
class MachineSnapshot:
    """One resumable machine state, captured at a global safe point.

    ``machine`` is the live object graph (cores, memory system, channels,
    mechanism, fault plan, trace buffer) — everything except the core
    generators, whose positions are the ``cursors``.  A snapshot read from
    disk owns a private copy of that graph; one obtained in memory shares
    the running machine's and must be serialized (or deep-copied) before the
    run advances further.
    """

    version: int
    mechanism: str
    program_name: str
    n_threads: int
    #: Conservative progress front (min live runner time) at capture.
    cycle: float
    total_steps: int
    runners: List[RunnerSnapshot]
    #: Instructions fully retired per thread — the replay cursor.
    cursors: List[int]
    machine: object = field(repr=False)

    def meta(self) -> dict:
        """Deterministic plain-data header block (no machine state)."""
        return {
            "version": self.version,
            "mechanism": self.mechanism,
            "program": self.program_name,
            "n_threads": self.n_threads,
            "cycle": self.cycle,
            "total_steps": self.total_steps,
            "cursors": list(self.cursors),
        }


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------


def _encode(snapshot: MachineSnapshot) -> bytes:
    meta = json.dumps(snapshot.meta(), sort_keys=True, separators=(",", ":")).encode()
    payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    out = io.BytesIO()
    out.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(meta)))
    out.write(meta)
    out.write(_META_TAIL.pack(zlib.crc32(meta)))
    out.write(_PAYLOAD_HEAD.pack(len(payload), zlib.crc32(payload)))
    out.write(payload)
    return out.getvalue()


def snapshot_to_bytes(snapshot: MachineSnapshot) -> bytes:
    """Serialize a snapshot to its (header + CRC + pickle) byte form."""
    return _encode(snapshot)


def _validated(data: bytes, source: str) -> "tuple[bytes, bytes]":
    """The meta block and payload of a snapshot's bytes, once its magic,
    version, lengths and both CRCs check out."""

    def corrupt(reason: str) -> SnapshotCorruptError:
        return SnapshotCorruptError(f"snapshot {source}: {reason}")

    if len(data) < _HEADER.size:
        raise corrupt(f"truncated header ({len(data)} bytes)")
    magic, version, meta_len = _HEADER.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise corrupt(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise corrupt(
            f"format version {version} unsupported (reader is v{CHECKPOINT_VERSION})"
        )
    off = _HEADER.size
    if len(data) < off + meta_len + _META_TAIL.size:
        raise corrupt("truncated metadata block")
    meta_raw = data[off : off + meta_len]
    off += meta_len
    (meta_crc,) = _META_TAIL.unpack_from(data, off)
    off += _META_TAIL.size
    if zlib.crc32(meta_raw) != meta_crc:
        raise corrupt("metadata CRC mismatch")
    if len(data) < off + _PAYLOAD_HEAD.size:
        raise corrupt("truncated payload header")
    payload_len, payload_crc = _PAYLOAD_HEAD.unpack_from(data, off)
    off += _PAYLOAD_HEAD.size
    payload = data[off : off + payload_len]
    if len(payload) != payload_len:
        raise corrupt(
            f"truncated payload ({len(payload)} of {payload_len} bytes)"
        )
    if zlib.crc32(payload) != payload_crc:
        raise corrupt("payload CRC mismatch (bit flip or torn write)")
    return meta_raw, payload


def snapshot_from_bytes(data: bytes, source: str = "<bytes>") -> MachineSnapshot:
    """Validate and decode :func:`snapshot_to_bytes` output.

    Raises :class:`SnapshotCorruptError` on any structural defect: short
    header, wrong magic, unknown version, truncation, CRC mismatch, or an
    undecodable payload.  Validation happens *before* unpickling, so a
    corrupt file never reaches the deserializer.
    """
    payload = _validated(data, source)[1]
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any decode failure is corruption
        raise SnapshotCorruptError(f"snapshot {source}: payload failed to decode: {exc}") from exc
    if not isinstance(snapshot, MachineSnapshot):
        kind = type(snapshot).__name__
        raise SnapshotCorruptError(f"snapshot {source}: payload decoded to {kind}, not a snapshot")
    return snapshot


def _resolve_fs(fs):
    # Imported lazily: repro.store.__init__ reaches this module through
    # dispatch → campaign, so a top-level import would form a cycle while
    # those packages are still half-initialised.
    from repro.store.io import resolve_fs

    return resolve_fs(fs)


def write_snapshot(
    path: str, snapshot: MachineSnapshot, keep_previous: bool = True, fs=None
) -> None:
    """Durably persist a snapshot with write-then-rename atomicity.

    The bytes land in ``<path>.tmp`` first and are fsynced before an
    ``os.replace`` into place, so a crash at any point leaves either the old
    snapshot or the new one — never a half-written file under the real name.
    With ``keep_previous`` the outgoing snapshot is rotated to
    ``<path>.prev`` first, preserving a fallback generation in case the new
    file is later found corrupt (media error after the write).

    ``fs`` is the OS facade from :mod:`repro.store.io` (default: the real
    filesystem; the chaos harness injects here).
    """
    fs = _resolve_fs(fs)
    data = _encode(snapshot)
    tmp = path + ".tmp"
    fd = fs.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        fs.write(fd, data)
        fs.fsync(fd)
    finally:
        fs.close(fd)
    if keep_previous and fs.exists(path):
        fs.replace(path, path + PREV_SUFFIX)
    fs.replace(tmp, path)
    fs.fsync_dir(os.path.dirname(os.path.abspath(path)))


def read_snapshot(path: str, fs=None) -> MachineSnapshot:
    """Read and validate one snapshot file (no quarantine, no fallback)."""
    try:
        data = _resolve_fs(fs).read_bytes(path)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return snapshot_from_bytes(data, source=path)


def inspect_snapshot(path: str) -> dict:
    """Validated metadata of a snapshot file, without unpickling the payload.

    Checks everything :func:`read_snapshot` checks before it unpickles —
    magic, version, lengths and both CRCs — so a file it accepts is one
    recovery would load; ``campaign status`` reports its cycle.  Raises
    :class:`SnapshotCorruptError` on a damaged file and :class:`OSError`
    when it cannot be read.
    """
    with open(path, "rb") as fh:
        return json.loads(_validated(fh.read(), path)[0])


def quarantine_snapshot(path: str, fs=None) -> str:
    """Move a corrupt snapshot aside for forensics; returns the new path.

    Never deletes: a quarantined file is evidence (CI uploads them as
    artifacts).  Numbered suffixes keep multiple quarantines apart.
    """
    fs = _resolve_fs(fs)
    target = path + QUARANTINE_SUFFIX
    n = 1
    while fs.exists(target):
        n += 1
        target = f"{path}{QUARANTINE_SUFFIX}.{n}"
    fs.replace(path, target)
    return target


@dataclass
class RecoveredSnapshot:
    """What :func:`recover_snapshot` found: a snapshot plus provenance."""

    snapshot: MachineSnapshot
    path: str
    #: True when the newest generation was corrupt and the rotated
    #: ``.prev`` generation was used instead.
    used_fallback: bool = False
    #: Paths the corrupt generations were quarantined to (may be empty).
    quarantined: List[str] = field(default_factory=list)


def recover_snapshot(path: str, fs=None) -> Optional[RecoveredSnapshot]:
    """Load the newest *valid* snapshot generation, quarantining bad ones.

    Tries ``path`` then ``path + ".prev"``.  A generation that fails
    validation is quarantined (renamed aside, kept for forensics) and the
    next one is tried.  Returns ``None`` when no valid generation exists —
    the caller's signal to fall back to cycle 0.  Corruption therefore
    costs at most one checkpoint interval of progress, never correctness.
    """
    fs = _resolve_fs(fs)
    quarantined: List[str] = []
    for used_fallback, candidate in ((False, path), (True, path + PREV_SUFFIX)):
        if not fs.exists(candidate):
            continue
        try:
            snapshot = read_snapshot(candidate, fs=fs)
        except SnapshotCorruptError:
            quarantined.append(quarantine_snapshot(candidate, fs=fs))
            continue
        return RecoveredSnapshot(
            snapshot=snapshot,
            path=candidate,
            used_fallback=used_fallback,
            quarantined=quarantined,
        )
    return None


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


def _progress_front(scheduler: SimKernel) -> float:
    """Min local time over live runners — the conservative progress bound."""
    live = [r.time for r in scheduler.runners if r.state is not _State.DONE]
    if not live:
        return max((r.time for r in scheduler.runners), default=0.0)
    return min(live)


def capture_snapshot(machine, program, scheduler: SimKernel) -> MachineSnapshot:
    """Build a :class:`MachineSnapshot` from a machine at a global safe point.

    The caller must have verified safety (every live runner suspended at an
    instruction-boundary heartbeat); :class:`Checkpointer` does.  The
    returned snapshot *shares* the live machine graph — serialize it before
    stepping the scheduler again.
    """
    runners = [
        RunnerSnapshot(
            core_id=r.core_id,
            time=r.time,
            done=r.state is _State.DONE,
            steps=r.steps,
            last_progress_step=r.last_progress_step,
            last_progress_time=r.last_progress_time,
        )
        for r in scheduler.runners
    ]
    cursors = [machine.cores[r.core_id].instructions_run for r in scheduler.runners]
    return MachineSnapshot(
        version=CHECKPOINT_VERSION,
        mechanism=machine.mechanism.name,
        program_name=program.name,
        n_threads=len(scheduler.runners),
        cycle=_progress_front(scheduler),
        total_steps=scheduler.total_steps,
        runners=runners,
        cursors=cursors,
        machine=machine,
    )


class Checkpointer:
    """Periodic safe-point snapshot engine threaded through the scheduler.

    Args:
        every: Simulated cycles between snapshots.  A snapshot is taken at
            the first global safe point after the progress front crosses
            each multiple of ``every`` (the absolute grid keeps restored
            runs on the same schedule as uninterrupted ones).
        path: Snapshot file destination (atomic write-then-rename, previous
            generation rotated to ``.prev``).  ``None`` keeps snapshots
            in memory only (``on_snapshot`` receives them).
        on_snapshot: Optional callback ``(snapshot, path_or_None)`` invoked
            after each snapshot is persisted.
        keep_previous: Rotate the outgoing file to ``.prev`` (default on).
        on_write_error: Optional handler for :class:`OSError` raised while
            persisting (``ENOSPC``, ``EIO``, ...).  When set, a failed write
            is *tolerated*: the handler is notified, ``write_failures`` is
            bumped, this snapshot is skipped, and the run continues to the
            next grid point — checkpointing is an optimization, and a full
            disk must not kill an otherwise-healthy simulation.  When
            ``None`` (the default) the error propagates.
        fs: OS facade from :mod:`repro.store.io` used to persist snapshots
            (default: the real filesystem; the chaos harness injects here).

    The engine is passive: it never mutates machine, channel, or scheduler
    state, so RunStats and trace streams are identical with checkpointing
    on or off.  ``Machine.run(checkpoint=...)`` wires it in; ``None`` keeps
    the scheduler hook to a single branch per step (zero-overhead contract).
    """

    def __init__(
        self,
        every: int,
        path: Optional[str] = None,
        on_snapshot: Optional[Callable[[MachineSnapshot, Optional[str]], None]] = None,
        keep_previous: bool = True,
        on_write_error: Optional[Callable[[OSError], None]] = None,
        fs=None,
    ) -> None:
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.every = int(every)
        self.path = path
        self.on_snapshot = on_snapshot
        self.keep_previous = keep_previous
        self.on_write_error = on_write_error
        self.fs = fs
        self._machine = None
        self._program = None
        self._next: float = float(every)
        self._preempt = False
        #: Snapshots taken over the engine's lifetime (spans resumes).
        self.snapshots_taken = 0
        #: Progress front at the most recent snapshot (None before any).
        self.last_cycle: Optional[float] = None
        #: Persist attempts swallowed by ``on_write_error``.
        self.write_failures = 0

    # -- wiring ---------------------------------------------------------

    def attach(self, machine, program, from_cycle: float = 0.0) -> "Checkpointer":
        """Bind to one run.  Called by ``Machine.run`` / :func:`resume_run`.

        ``from_cycle`` aligns the schedule to the absolute ``every`` grid so
        a restored run checkpoints at the same simulated cycles an
        uninterrupted run would.
        """
        self._machine = machine
        self._program = program
        self._next = (math.floor(from_cycle / self.every) + 1) * float(self.every)
        return self

    def request_preempt(self) -> None:
        """Ask for a checkpoint-and-stop at the next safe point.

        Async-signal-safe (only sets a flag): call it from a SIGTERM
        handler.  The run raises :class:`PreemptionRequested` once the
        snapshot is persisted.
        """
        self._preempt = True

    # -- scheduler hook -------------------------------------------------

    def _all_safe(self, scheduler: SimKernel) -> bool:
        cores = self._machine.cores
        for r in scheduler.runners:
            if r.state is _State.DONE:
                continue
            if r.state is not _State.RUNNABLE or not cores[r.core_id].at_safe_point:
                return False
        return True

    def on_step(self, scheduler: SimKernel) -> None:
        """Evaluate one checkpoint opportunity (after a scheduler step)."""
        front = _progress_front(scheduler)
        if not self._preempt and front < self._next:
            return
        if not self._all_safe(scheduler):
            return
        snapshot = capture_snapshot(self._machine, self._program, scheduler)
        persisted_path = self._persist(snapshot)
        self._next = (math.floor(front / self.every) + 1) * float(self.every)
        if self._preempt:
            self._preempt = False
            raise PreemptionRequested(snapshot.cycle, persisted_path, snapshot)

    def _persist(self, snapshot: MachineSnapshot) -> Optional[str]:
        """Persist one snapshot; returns its durable path (None if none)."""
        if self.path is not None:
            try:
                write_snapshot(
                    self.path,
                    snapshot,
                    keep_previous=self.keep_previous,
                    fs=self.fs,
                )
            except OSError as exc:
                if self.on_write_error is None:
                    raise
                # Tolerated: count it, tell the handler, skip this snapshot.
                # The schedule still advances, so a persistently full disk
                # costs one failed write per interval, not one per step.
                self.write_failures += 1
                self.on_write_error(exc)
                return None
        self.snapshots_taken += 1
        self.last_cycle = snapshot.cycle
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot, self.path)
        return self.path


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def _empty_generator():
    return iter(())


def resume_run(
    snapshot: MachineSnapshot,
    program,
    max_steps: int = 50_000_000,
    wall_clock_budget: Optional[float] = None,
    checkpoint: Optional[Checkpointer] = None,
    abort: Optional[Callable[[], Optional[str]]] = None,
) -> RunStats:
    """Continue a snapshotted run to completion; returns the full-run stats.

    ``program`` must be the same program the snapshot was taken from —
    programs carry generator *builders* (closures), which snapshots cannot
    serialize, so the caller rebuilds the program deterministically (exactly
    what campaign cells do) and this function replays each thread's
    instruction stream up to its cursor before handing the tail to the
    restored core.  Mismatched names or thread counts raise
    :class:`SnapshotError` rather than silently diverging.

    The returned :class:`~repro.sim.stats.RunStats` covers the run *from
    cycle 0*: restored counters already include all pre-snapshot history, so
    fingerprints are directly comparable with an uninterrupted run's.
    ``host_seconds``, by contrast, covers only the resumed segment — the
    host time the pre-crash process spent is gone with that process.

    A snapshot is single-use (resuming mutates its machine graph); read the
    file again — or re-decode the bytes — to resume twice.
    """
    if snapshot.version != CHECKPOINT_VERSION:
        raise SnapshotError(
            f"snapshot version {snapshot.version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if getattr(snapshot, "_consumed", False):
        raise SnapshotError(
            "snapshot already resumed once; a resume mutates its machine "
            "state — re-read the snapshot to resume again"
        )
    snapshot._consumed = True
    if program.name != snapshot.program_name:
        raise SnapshotError(
            f"snapshot was taken from program {snapshot.program_name!r} "
            f"but got {program.name!r}"
        )
    if program.n_threads != snapshot.n_threads:
        raise SnapshotError(
            f"snapshot has {snapshot.n_threads} threads "
            f"but program {program.name!r} has {program.n_threads}"
        )
    machine = snapshot.machine
    generators = []
    for i, thread in enumerate(program.threads):
        rs = snapshot.runners[i]
        if rs.done:
            generators.append(_empty_generator())
            continue
        stream = thread.instructions()
        for _ in range(snapshot.cursors[i]):
            next(stream)
        generators.append(machine.cores[i].run(stream))
    if checkpoint is not None:
        checkpoint.attach(machine, program, from_cycle=snapshot.cycle)

    def restore(engine: SimKernel) -> None:
        engine.total_steps = snapshot.total_steps
        for runner, rs in zip(engine.runners, snapshot.runners):
            _restore_runner(runner, rs)

    return machine._drive(generators, max_steps, wall_clock_budget, checkpoint, abort, restore)


def _restore_runner(runner: CoreRunner, rs: RunnerSnapshot) -> None:
    runner.time = rs.time
    runner.state = _State.DONE if rs.done else _State.RUNNABLE
    runner.steps = rs.steps
    runner.last_progress_step = rs.last_progress_step
    runner.last_progress_time = rs.last_progress_time
