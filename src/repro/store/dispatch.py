"""Multi-host cell dispatch over a shared-filesystem work queue.

The local worker pool (:mod:`repro.harness.pool`) is single-host: one
parent process starts workers.  Fleet scale needs the inverse shape —
any number of hosts mounting one filesystem, each pulling cells from a
shared queue and publishing results to the content-addressed store
(:mod:`repro.store.store`), with no coordinator process at all.
:class:`QueueBackend` is the campaign's side of it (``run_campaign(...,
queue=...)`` enqueues misses); :func:`run_worker` is the far side.  The
design borrows the lock-free split the streaming literature uses between
dispatch and worker farms (FastFlow's accelerators; Prasaad et al.'s
ordered-stream workers): the *queue* holds only specs, the *store* is
the only result channel, and every coordination primitive is an atomic
filesystem rename.

Layout::

    <queue>/pending/<digest>.json     # one cell spec per file
    <queue>/leases/<digest>.lease     # atomic claim + heartbeat
    <queue>/failed/<digest>.json      # deterministic failures, diagnosed

**Claiming** is ``open(O_CREAT | O_EXCL)`` on the lease file: exactly one
worker wins, no lock server.  A lease carries the worker id, a random
token, and a heartbeat timestamp; the holder renews it by atomically
rewriting the file.  A lease whose heartbeat is older than ``lease_ttl``
is *stale* — its worker crashed or lost the host — and any other worker
may reclaim it: rename the stale lease aside (``os.replace`` has exactly
one winner, so two reclaimers cannot both proceed), then claim fresh.
The token guards the other half of the race: a zombie holder's next
heartbeat sees a token it does not own and gets :class:`LeaseLostError`
instead of silently stomping the new owner's lease.

**Crash safety** composes with the rest of the system: a worker killed
mid-cell leaves a stale lease (reclaimed; the cell re-runs — it never
published, so nothing is lost) or a published-but-uncompleted cell (the
reclaiming worker sees the store entry and completes without re-running
— publication is the commit point).  Results are deduped by the store's
own semantics, so even two workers racing the same cell converge on one
entry with one fingerprint.

``clock`` is injectable (default :func:`time.time`) so staleness and
reclamation are unit-testable without real waiting — the same discipline
as the campaign ledger's ``sleep`` hook.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.classify import FailureClass, classify_outcome
from repro.harness.campaign import LEDGER_SCHEMA_VERSION, CampaignCell, CellTask
from repro.harness.pool import run_attempt
from repro.harness.runner import FailedRun, TimedOutRun
from repro.obs import runtime as _obs
from repro.store.io import resolve_fs, write_atomic
from repro.store.store import ResultStore, cell_digest, publish, result_from_entry

__all__ = [
    "Lease",
    "LeaseLostError",
    "QueueBackend",
    "WorkQueue",
    "run_worker",
]

#: Default seconds without a heartbeat before a lease counts as stale.
DEFAULT_LEASE_TTL = 60.0

#: Seconds between a queue-backed campaign's checks of its cells' fate.
_QUEUE_POLL_S = 0.2


class LeaseLostError(RuntimeError):
    """A heartbeat found the lease gone or owned by another worker.

    The holder must stop treating the cell as its own: a reclaimer took
    over after the holder's heartbeats went stale.  Any result it still
    produces may be published — the store dedupes — but the lease and
    pending entry now belong to someone else.
    """


@dataclass
class Lease:
    """One worker's claim on one queued cell."""

    digest: str
    path: str
    worker: str
    token: str
    acquired_at: float


class WorkQueue:
    """A shared-filesystem queue of campaign cells with crash-safe leases."""

    def __init__(
        self,
        root: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Optional[Callable[[], float]] = None,
        fs=None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.root = str(root)
        self.lease_ttl = float(lease_ttl)
        #: OS facade for every durable path (:mod:`repro.store.io`); the
        #: default is the real filesystem, :mod:`repro.chaos` injects here.
        self.fs = resolve_fs(fs)
        #: Staleness clock.  Defaults to the facade's (so chaos clock skew
        #: reaches lease TTL judgements); still separately injectable for
        #: tests that step time by hand.
        self.clock: Callable[[], float] = clock if clock is not None else self.fs.clock
        self.pending_dir = os.path.join(self.root, "pending")
        self.leases_dir = os.path.join(self.root, "leases")
        self.failed_dir = os.path.join(self.root, "failed")
        for d in (self.pending_dir, self.leases_dir, self.failed_dir):
            self.fs.makedirs(d, exist_ok=True)

    # -- enqueue --------------------------------------------------------

    def enqueue(self, cell: CampaignCell, cid: Optional[str] = None) -> Tuple[str, bool]:
        """Add one cell; returns ``(digest, created)``.  Idempotent.

        The pending file is the *only* record that the cell exists, and
        callers acknowledge the enqueue to their own callers (a dispatcher
        starts awaiting the digest) — so the write carries the full
        directory-fsync discipline: a power loss after ``enqueue`` returns
        must never silently unqueue the cell.

        ``cid`` rides along in the pending doc: it is how a serve query's
        correlation ID crosses hosts to the worker that eventually runs
        the cell.  It is observability-only — never part of the digest,
        so an enqueue with a different cid still dedupes.
        """
        digest = cell_digest(cell)
        path = os.path.join(self.pending_dir, digest + ".json")
        if self.fs.exists(path):
            return digest, False
        doc = {
            "digest": digest,
            "schema": LEDGER_SCHEMA_VERSION,
            "spec": cell.spec(),
            "enqueued_at": self.clock(),
        }
        if cid is not None:
            doc["cid"] = cid
        write_atomic(
            path,
            (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"),
            fs=self.fs,
        )
        return digest, True

    def pending(self) -> List[str]:
        """Digests currently queued (leased or not), oldest enqueue first."""
        entries = []
        for name in os.listdir(self.pending_dir):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.pending_dir, name)
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue  # completed while listing
            entries.append((mtime, name[: -len(".json")]))
        return [digest for _, digest in sorted(entries)]

    def load_doc(self, digest: str) -> Dict[str, object]:
        """The queued cell's full pending/failed doc (spec + cid + times)."""
        for d in (self.pending_dir, self.failed_dir):
            path = os.path.join(d, digest + ".json")
            try:
                doc = json.loads(self.fs.read_bytes(path).decode("utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict) and "spec" in doc:
                return doc
        raise KeyError(f"digest {digest[:16]} not queued")

    def load_cell(self, digest: str) -> CampaignCell:
        """Rebuild the queued cell's spec (from pending or failed)."""
        return CampaignCell.from_spec(self.load_doc(digest)["spec"])

    # -- leases ---------------------------------------------------------

    def _lease_path(self, digest: str) -> str:
        return os.path.join(self.leases_dir, digest + ".lease")

    def _read_lease(self, path: str) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self.fs.read_bytes(path).decode("utf-8"))
        except (OSError, ValueError):
            # Missing, or caught mid-replace: treat as unreadable-now.
            return None

    def _try_acquire(self, digest: str, worker: str) -> Optional[Lease]:
        """O_EXCL-create the lease file; exactly one caller can win."""
        path = self._lease_path(digest)
        token = os.urandom(8).hex()
        now = self.clock()
        body = json.dumps(
            {"digest": digest, "worker": worker, "token": token, "time": now},
            sort_keys=True,
        ).encode("utf-8")
        try:
            fd = self.fs.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        try:
            self.fs.write(fd, body)
            self.fs.fsync(fd)
        finally:
            self.fs.close(fd)
        return Lease(
            digest=digest, path=path, worker=worker, token=token, acquired_at=now
        )

    def _reclaim_stale(self, digest: str) -> bool:
        """Break a stale lease.  True when this caller won the break.

        The break is a rename: ``os.replace`` moves the stale file to a
        caller-private tombstone, so of N concurrent reclaimers exactly
        one succeeds (the others' renames raise ``FileNotFoundError``).
        The tombstone is then removed — the evidence that matters (who
        held it, when it last beat) lives in worker logs, not the queue.
        """
        path = self._lease_path(digest)
        doc = self._read_lease(path)
        if doc is None:
            # Missing — or present but unreadable: a claimer that died
            # between its O_EXCL create and the body write leaves a torn
            # lease that will never heartbeat.  Age it by file mtime so it
            # becomes reclaimable after one TTL (younger could still be a
            # live claimer between create and write); without this, a torn
            # lease wedges its digest forever (found by the chaos drill).
            try:
                age = self.clock() - os.path.getmtime(path)
            except OSError:
                return False  # truly gone
            if age <= self.lease_ttl:
                return False
        else:
            beat = float(doc.get("time", 0.0))
            if self.clock() - beat <= self.lease_ttl:
                return False
        tombstone = f"{path}.stale.{os.getpid()}.{threading.get_ident()}"
        try:
            self.fs.replace(path, tombstone)
        except FileNotFoundError:
            return False  # another reclaimer won
        try:
            self.fs.unlink(tombstone)
        except OSError:
            pass
        state = _obs.get_state()
        if state is not None:
            state.registry.counter(
                "repro_dispatch_lease_reclaims_total",
                "Stale leases broken by this process",
            ).inc()
            state.emit(
                "dispatch.lease_reclaimed",
                digest=digest,
                holder=(doc or {}).get("worker"),
            )
        return True

    def claim(self, worker: Optional[str] = None) -> Optional[Lease]:
        """Claim the oldest claimable pending cell, or ``None``.

        Skips digests under a live lease; breaks stale leases first.  A
        claim can race completion (the pending file vanishing between
        listing and locking) — the worker loop handles that by checking
        the store after claiming.
        """
        worker = worker or default_worker_id()
        for digest in self.pending():
            lease = self._try_acquire(digest, worker)
            if lease is not None:
                return lease
            if self._reclaim_stale(digest):
                lease = self._try_acquire(digest, worker)
                if lease is not None:
                    return lease
        return None

    def heartbeat(self, lease: Lease) -> None:
        """Renew the lease's staleness clock; raise if ownership was lost."""
        doc = self._read_lease(lease.path)
        if doc is None or doc.get("token") != lease.token:
            raise LeaseLostError(
                f"lease on {lease.digest[:16]} lost (reclaimed after stale "
                f"heartbeats or completed elsewhere)"
            )
        doc["time"] = self.clock()
        # dir_sync=False: a lease renewal rolled back by power loss only
        # makes the heartbeat *look* older, and the token fence already
        # protects the holder against the resulting early reclamation.
        write_atomic(
            lease.path,
            (json.dumps(doc, sort_keys=True) + "\n").encode(),
            fs=self.fs,
            dir_sync=False,
        )

    def complete(self, lease: Lease) -> None:
        """Retire a finished cell: drop its pending entry and lease."""
        for path in (
            os.path.join(self.pending_dir, lease.digest + ".json"),
            lease.path,
        ):
            try:
                self.fs.unlink(path)
            except OSError:
                pass
        # Make the retirement durable: if the pending-entry unlink reverts
        # on power loss the cell merely re-runs (the store dedupes), but
        # syncing here keeps "completed" meaning completed on the platter.
        self.fs.fsync_dir(self.pending_dir)

    def release(self, lease: Lease) -> None:
        """Give a claimed cell back (still pending, claimable by anyone)."""
        try:
            self.fs.unlink(lease.path)
        except OSError:
            pass

    def fail(self, lease: Lease, outcome) -> None:
        """Move a deterministically-failed cell to ``failed/`` (diagnosed).

        The spec travels with the diagnosis so operators can requeue by
        renaming the file back into ``pending/``.
        """
        pending = os.path.join(self.pending_dir, lease.digest + ".json")
        target = os.path.join(self.failed_dir, lease.digest + ".json")
        doc: Dict[str, object] = {"digest": lease.digest, "failed_at": self.clock()}
        try:
            doc["spec"] = json.loads(self.fs.read_bytes(pending).decode("utf-8"))[
                "spec"
            ]
        except (OSError, ValueError, KeyError):
            pass
        doc["error_type"] = getattr(outcome, "error_type", type(outcome).__name__)
        doc["error"] = getattr(outcome, "error", str(outcome))
        # Fully dir-synced: the diagnosis is the only copy of the evidence
        # once the pending entry is retired below.
        write_atomic(
            target, (json.dumps(doc, sort_keys=True) + "\n").encode(), fs=self.fs
        )
        self.complete(lease)

    def failed(self) -> Dict[str, Dict[str, object]]:
        """Diagnosed failures by digest."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(os.listdir(self.failed_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(
                    os.path.join(self.failed_dir, name), "r", encoding="utf-8"
                ) as fh:
                    out[name[: -len(".json")]] = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
        return out

    def fate(self, store: ResultStore, digest: str) -> Tuple[str, Optional[object]]:
        """``("stored", entry)``, ``("failed", doc)`` or ``("pending", None)``.

        The one check on a queued digest that both of the queue's waiters,
        serve's ``QueueExecutor`` and the campaign's :class:`QueueBackend`,
        poll.
        """
        entry = store.get(digest)
        if entry is not None:
            return "stored", entry
        path = os.path.join(self.failed_dir, digest + ".json")
        try:
            return "failed", json.loads(self.fs.read_bytes(path).decode("utf-8"))
        except (OSError, ValueError):
            return "pending", None

    def stats(self) -> Dict[str, object]:
        leases = [n for n in os.listdir(self.leases_dir) if n.endswith(".lease")]
        stale = 0
        now = self.clock()
        for name in leases:
            doc = self._read_lease(os.path.join(self.leases_dir, name))
            if doc is not None and now - float(doc.get("time", 0.0)) > self.lease_ttl:
                stale += 1
        return {
            "root": self.root,
            "pending": len(self.pending()),
            "leased": len(leases),
            "stale_leases": stale,
            "failed": len(self.failed()),
            "lease_ttl": self.lease_ttl,
        }


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------


class _HeartbeatThread(threading.Thread):
    """Renews one lease in the background while the cell simulates.

    Failures are *surfaced*, not swallowed: ``lost`` is the fence the
    worker loop checks.  It is set immediately on :class:`LeaseLostError`
    (another worker holds the cell now), and also when heartbeat I/O keeps
    erroring for longer than the lease TTL — at that point the lease is
    stale from every other worker's point of view whether or not the
    renewal bytes ever landed, so the holder must assume it was reclaimed.
    A worker that keeps simulating after ``lost`` is a zombie: its result
    may still be published (the store dedupes), but it must not complete,
    fail, or release the queue entry it no longer owns.
    """

    def __init__(self, queue: WorkQueue, lease: Lease, every: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{lease.digest[:8]}")
        self.queue = queue
        self.lease = lease
        self.every = every
        self.lost = threading.Event()
        #: Transient heartbeat I/O errors absorbed so far (observability).
        self.io_failures = 0
        self._last_ok = queue.clock()
        # NB: not named _stop — threading.Thread owns that attribute and
        # calls it internally when the thread finishes.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.every):
            try:
                self.queue.heartbeat(self.lease)
            except LeaseLostError:
                self.lost.set()
                self._observe_fence("lease_lost")
                return
            except OSError:
                # A single hiccup is absorbed by the TTL; a run of them
                # longer than the TTL means the lease has gone stale on
                # disk and anyone may have reclaimed it — fence ourselves.
                self.io_failures += 1
                state = _obs.get_state()
                if state is not None:
                    state.registry.counter(
                        "repro_dispatch_heartbeat_io_failures_total",
                        "Heartbeat renewals that errored (absorbed by the TTL)",
                    ).inc()
                if self.queue.clock() - self._last_ok > self.queue.lease_ttl:
                    self.lost.set()
                    self._observe_fence("io_stale")
                    return
                continue
            self._last_ok = self.queue.clock()

    def _observe_fence(self, reason: str) -> None:
        state = _obs.get_state()
        if state is not None:
            state.registry.counter(
                "repro_dispatch_heartbeat_fences_total",
                "Workers self-fenced after losing their lease",
                reason=reason,
            ).inc()
            state.emit(
                "dispatch.heartbeat_fenced",
                digest=self.lease.digest,
                worker=self.lease.worker,
                reason=reason,
                io_failures=self.io_failures,
            )

    def stop(self) -> None:
        self._halt.set()


def run_worker(
    store: ResultStore,
    queue: WorkQueue,
    worker_id: Optional[str] = None,
    poll: float = 0.5,
    heartbeat_every: Optional[float] = None,
    max_cells: Optional[int] = None,
    drain: bool = True,
    wall_clock_budget: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, int]:
    """Pull cells from the queue until it drains (or ``max_cells``).

    For each claimed cell: a store hit (published by a faster worker or a
    previous campaign) completes immediately; otherwise the cell runs in
    this process as a pool worker's attempt would (:func:`run_attempt`)
    and commits through :func:`~repro.store.store.publish`, the commit
    point.  The outcome publish returns settles the queue entry by the
    rule campaigns and ``repro serve`` use
    (:func:`~repro.faults.classify.classify_outcome`): a result completes
    it, a transient failure (a watchdog timeout, a result the store could
    not take) releases the lease for any worker to retry, and a
    deterministic one is filed under ``failed/``.  A store I/O error, in
    the publish or in the store-hit probe, releases the cell, counts as
    ``io_errors`` and waits one ``poll`` before the next claim; it never
    ends the loop.  Heartbeats renew the lease
    from a background thread every ``heartbeat_every`` seconds (default: a
    third of the queue's TTL) so long cells are never reclaimed mid-run.

    Returns counters: ``{"ran", "store_hits", "failed", "released",
    "lease_lost", "io_errors"}``.
    """
    worker_id = worker_id or default_worker_id()
    if heartbeat_every is None:
        heartbeat_every = queue.lease_ttl / 3.0
    counters = {
        "ran": 0,
        "store_hits": 0,
        "failed": 0,
        "released": 0,
        "lease_lost": 0,
        "io_errors": 0,
    }

    def bump(name: str) -> None:
        # The dict is the return contract; the registry mirror is what a
        # scrape (or an obs snapshot dump) sees while the loop is live.
        counters[name] += 1
        state = _obs.get_state()
        if state is not None:
            state.registry.counter(
                f"repro_worker_{name}_total", "run_worker outcome counter"
            ).inc()

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    while max_cells is None or (counters["ran"] + counters["store_hits"]) < max_cells:
        lease = queue.claim(worker_id)
        if lease is None:
            if not drain or not queue.pending():
                break
            sleep(poll)  # everything pending is leased elsewhere; wait
            continue
        cid: Optional[str] = None
        doc: Optional[Dict[str, object]] = None
        if _obs.active():
            # Eager doc read only when observing: the cid travels in the
            # pending doc and the claim event should carry it.  Disabled,
            # the store-hit path keeps its seed-era zero-read shape.
            try:
                doc = queue.load_doc(lease.digest)
                raw_cid = doc.get("cid")
                cid = raw_cid if isinstance(raw_cid, str) else None
            except KeyError:
                doc = None
            _obs.emit(
                "worker.claim", cid=cid, digest=lease.digest, worker=worker_id
            )
        try:
            stored = store.contains(lease.digest)
        except OSError as exc:
            queue.release(lease)
            bump("io_errors")
            bump("released")
            note(f"[{worker_id}] store probe failed for {lease.digest[:16]}: {exc}; released")
            sleep(poll)  # not a hot claim/release loop on a sick disk
            continue
        if stored:
            # Published by someone else (or a prior campaign) after it was
            # enqueued: completing without running IS the dedupe.
            bump("store_hits")
            queue.complete(lease)
            if _obs.active():
                _obs.emit(
                    "worker.store_hit", cid=cid, digest=lease.digest, worker=worker_id
                )
            note(f"[{worker_id}] {lease.digest[:16]} already stored; completed")
            continue
        if doc is None:
            try:
                doc = queue.load_doc(lease.digest)
            except KeyError:
                queue.release(lease)
                continue
        cell = CampaignCell.from_spec(doc["spec"])
        beat = _HeartbeatThread(queue, lease, heartbeat_every)
        beat.start()

        def fence() -> Optional[str]:
            # Probed by the kernel at its wall-clock cadence: a fenced
            # zombie stops simulating within one check interval instead of
            # burning the whole cell before discovering the lease is gone.
            if beat.lost.is_set():
                return f"lease on {lease.digest[:16]} lost (fenced heartbeat)"
            return None

        try:
            outcome = run_attempt(CellTask(cell, cid=cid), wall_clock_budget, None, abort=fence)
        finally:
            beat.stop()
            beat.join(timeout=heartbeat_every + 1.0)
        if beat.lost.is_set():
            bump("lease_lost")
            note(f"[{worker_id}] lease lost on {lease.digest[:16]}; discarding")
            continue
        ran = outcome.ok
        provenance = {"campaign": "queue", "worker": worker_id, "attempt": 1}
        outcome, _entry = publish(store, cell, outcome, provenance, cid=cid)
        if outcome.ok:
            queue.complete(lease)
            bump("ran")
            note(
                f"[{worker_id}] ran {cell.key()} "
                f"({outcome.cycles} cycles, fp {outcome.fingerprint()})"
            )
        elif classify_outcome(outcome) is FailureClass.TRANSIENT:
            # Not acknowledged: the cell is back in the queue for any
            # worker — possibly this one, next claim — to retry.
            queue.release(lease)
            bump("released")
            note(f"[{worker_id}] released {cell.key()}: {outcome.error_type}: {outcome.error}")
            if ran:  # the result ran but the store could not take it
                bump("io_errors")
                sleep(poll)
        else:
            queue.fail(lease, outcome)
            bump("failed")
            if _obs.active():
                _obs.emit(
                    "worker.failed",
                    cid=cid,
                    digest=lease.digest,
                    worker=worker_id,
                    error_type=outcome.error_type,
                )
            note(f"[{worker_id}] failed {cell.key()}: {outcome.error_type}")
    return counters


# ----------------------------------------------------------------------
# The campaign's queue backend (``campaign run --workers-external``)
# ----------------------------------------------------------------------


class QueueBackend:
    """``run_campaign``'s external farm: enqueue misses, await their fate.

    Nothing simulates here.  An attempt ends when :meth:`WorkQueue.fate`
    finds its cell stored (a :class:`RunResult` rebuilt from the entry) or
    filed under ``failed/`` (a deterministic :class:`FailedRun`), or after
    ``budget`` seconds (a transient :class:`TimedOutRun`; the cell stays
    queued, so a retry waits again).  Same interface as
    :class:`~repro.harness.pool.WorkerPool`.
    """

    def __init__(self, store: ResultStore, queue: WorkQueue, budget: Optional[float]) -> None:
        self.store = store
        self.queue = queue
        self.budget = budget
        #: ``(task, digest, started_at)`` of every attempt waiting.
        self.busy: List[Tuple[CellTask, str, float]] = []

    def has_capacity(self) -> bool:
        return True

    def start(self, task: CellTask) -> None:
        digest, _created = self.queue.enqueue(task.cell, cid=task.cid)
        self.busy.append((task, digest, time.monotonic()))

    def _outcome(self, task: CellTask, digest: str, started_at: float):
        cell = task.cell
        fate, found = self.queue.fate(self.store, digest)
        if fate == "stored":
            return result_from_entry(found)
        if fate == "failed":
            return FailedRun(
                benchmark=cell.benchmark,
                design_point=cell.design_point,
                error_type=str(found.get("error_type", "FailedRun")),
                error=str(found.get("error", "external worker failure")),
            )
        elapsed = time.monotonic() - started_at
        if self.budget is not None and elapsed >= self.budget:
            return TimedOutRun(
                benchmark=cell.benchmark,
                design_point=cell.design_point,
                budget=self.budget,
                elapsed=elapsed,
                error="no external worker resolved the cell within the budget",
            )
        return None

    def collect(self, timeout: Optional[float] = None):
        """Resolve what the fleet has finished; sleep one poll if nothing."""
        done = []
        for waiting in list(self.busy):
            outcome = self._outcome(*waiting)
            if outcome is not None:
                self.busy.remove(waiting)
                done.append((waiting[0], outcome))
        if not done and self.busy:
            time.sleep(_QUEUE_POLL_S if timeout is None else min(_QUEUE_POLL_S, timeout))
        return done

    def close(self, grace: Optional[float] = None):
        return []  # external workers carry on; their results land in the store
