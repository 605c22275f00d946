"""The local worker pool: one farm of simulation processes for every caller.

Campaigns and ``repro serve``'s ``LocalExecutor`` run cell attempts here
(FastFlow's farm skeleton; the caller is emitter and collector).  Workers
persist between attempts — a run depends only on its cell spec — and start
lazily.  An attempt past ``wall_clock_budget + kill_grace`` is SIGKILLed
(``TimedOutRun(hard_kill=True)``), a worker that dies unreported becomes a
transient ``WorkerDiedError``, and the next attempt gets a fresh worker.
A worker sends one message per attempt, its outcome; a checkpointing
attempt's progress is in its snapshot files, which ``campaign status``
reads.  Campaigns fork their workers.  Serve forks them from a forkserver
that has this module loaded (:mod:`repro.forkserver`), so a worker loads
nothing on its first task; ``python -m repro serve`` forks that forkserver
from itself before it listens, and the workers still start on the first
miss.
``run_campaign`` drives this pool and :class:`~repro.store.dispatch.QueueBackend`
through one interface: ``busy``, ``has_capacity``, ``start``, ``collect``,
``close``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Tuple

from repro.harness.campaign import CampaignPolicy, CellTask, cell_checkpoint_path, execute_cell
from repro.harness.runner import FailedRun, RunOutcome, RunResult, TimedOutRun
from repro.obs import runtime as _obs
from repro.obs.spans import span as _span
from repro.sim.checkpoint import Checkpointer, SnapshotError, recover_snapshot

__all__ = ["Attempt", "WorkerPool", "run_attempt"]

#: Seconds an idle worker waits for a job between checks that its parent
#: is still alive (an orphaned worker exits instead of lingering).
_PARENT_CHECK_S = 1.0

# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _discard_snapshots(path: Optional[str]) -> None:
    """Best-effort removal of a cell's snapshot generations."""
    if path is None:
        return
    for candidate in (path, path + ".prev"):
        try:
            os.unlink(candidate)
        except OSError:
            pass


def run_attempt(
    task: CellTask,
    wall_clock_budget: Optional[float],
    checkpoint_every: Optional[int],
    abort: Optional[Callable[[], Optional[str]]] = None,
) -> RunOutcome:
    """Run one cell attempt in this process (a pool worker, or a queue
    worker passing its lease fence as ``abort``).

    Usage errors become a :class:`FailedRun` with the traceback: an
    exception that killed the worker would look transient and be retried.
    With checkpointing on, the attempt resumes the cell's latest valid
    snapshot (unless ``task.allow_resume`` is off), turns SIGTERM into a
    checkpoint-and-stop (``PreemptedRun``) until it ends — then restores
    the default handler — and deletes the snapshots once the run completes.
    """
    cell = task.cell
    path = cell_checkpoint_path(task.checkpoint_dir, cell) if task.checkpoint_dir else None
    checkpointer: Optional[Checkpointer] = None
    preemptible = False
    cid_token = _obs.set_cid(task.cid) if task.cid is not None else None
    try:
        resume_from = None
        resumed_note = ""
        if checkpoint_every is not None:
            recovered = recover_snapshot(path) if path and task.allow_resume else None
            if recovered is not None:
                resume_from = recovered.snapshot
                if recovered.quarantined:
                    resumed_note = f"quarantined corrupt snapshot(s) {recovered.quarantined}; "
            elif not task.allow_resume:
                _discard_snapshots(path)
            checkpointer = Checkpointer(
                every=checkpoint_every,
                path=path,
                on_write_error=lambda exc: None,  # ENOSPC etc.: skip, not die
            )
            signal.signal(signal.SIGTERM, lambda *_: checkpointer.request_preempt())
            preemptible = True
        with _span(
            "sim.run",
            cid=task.cid,
            kernel=cell.kernel,
            benchmark=cell.benchmark,
            attempt=task.attempt,
        ) as sp:
            try:
                outcome = execute_cell(
                    cell, wall_clock_budget, checkpointer, resume_from, abort
                )
            except SnapshotError:
                # The snapshot did not fit this cell (stale file, version
                # skew): losing a checkpoint must never lose the cell.
                _discard_snapshots(path)
                outcome = execute_cell(cell, wall_clock_budget, checkpointer, abort=abort)
            sp.note(ok=outcome.ok, outcome=type(outcome).__name__)
        if resumed_note and not outcome.ok:
            outcome.detail = resumed_note + (outcome.detail or "")
        if isinstance(outcome, RunResult):
            _discard_snapshots(path)
    except Exception as exc:
        outcome = FailedRun(
            benchmark=cell.benchmark,
            design_point=cell.design_point,
            error_type=type(exc).__name__,
            error=(str(exc).splitlines() or [type(exc).__name__])[0],
            detail=traceback.format_exc(),
        )
    finally:
        if preemptible:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if cid_token is not None:
            _obs.reset_cid(cid_token)
    return outcome


def _worker_main(conn) -> None:
    """Worker loop: run jobs until a ``None`` job, a closed pipe, or a new
    parent (the old one died).  The pool owns the worker's lifetime, so a
    terminal's Ctrl-C is ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(_PARENT_CHECK_S):
                if os.getppid() != parent:
                    return
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        task, wall_clock_budget, checkpoint_every, obs_log = job
        # Follow the parent's event log: join it, or leave it when it is off
        # (a log that cannot be opened costs the events, not the attempt).
        try:
            if obs_log is not None:
                _obs.configure(log_path=obs_log[0], sync=obs_log[1])
            elif _obs.active():
                _obs.shutdown()
        except OSError:
            _obs.shutdown()
        outcome = run_attempt(task, wall_clock_budget, checkpoint_every)
        if isinstance(outcome, RunResult):
            outcome.machine = outcome.trace = None  # stats and extras cross
        try:
            conn.send(outcome)
        except OSError:
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    process: object
    conn: object


@dataclass
class Attempt:
    """One attempt running on one worker."""

    task: CellTask
    worker: _Worker
    started_at: float
    hard_deadline: Optional[float]


class WorkerPool:
    """Up to ``policy.jobs`` persistent workers started from ``context``.

    Several threads may drive one pool if each attempt is collected by one
    thread (serve's waiters collect their own).
    """

    def __init__(self, policy: CampaignPolicy, context) -> None:
        self.policy = policy.validate()
        self.context = context
        #: Attempts in flight.
        self.busy: List[Attempt] = []
        self._idle: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    def has_capacity(self) -> bool:
        return len(self.busy) < self.policy.jobs

    def processes(self) -> List[object]:
        """The worker processes, idle and busy."""
        with self._lock:
            return [w.process for w in self._idle] + [a.worker.process for a in self.busy]

    def _new_worker(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_worker_main, args=(child_conn,), daemon=True, name="repro-pool-worker"
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self, task: CellTask) -> Attempt:
        """Hand ``task`` to an idle worker, starting one if none is idle."""
        policy = self.policy
        state = _obs.get_state()
        obs_log = (state.log.path, state.log.sync) if state and state.log else None
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            while self._idle and not self._idle[-1].process.is_alive():
                self._stop(self._idle.pop())  # died while idle
            worker = self._idle.pop() if self._idle else self._new_worker()
            now = time.monotonic()
            budget = policy.wall_clock_budget
            deadline = now + budget + policy.kill_grace if budget is not None else None
            attempt = Attempt(task, worker, now, deadline)
            self.busy.append(attempt)
        try:
            worker.conn.send((task, budget, policy.checkpoint_every, obs_log))
        except OSError:
            pass  # the worker just died; collect() reports it
        return attempt

    def _receive(self, attempt: Attempt) -> Optional[RunOutcome]:
        """The attempt's outcome, if its worker has sent it."""
        try:
            if attempt.worker.conn.poll():
                return attempt.worker.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def _stop(self, worker: _Worker, kill: bool = False) -> None:
        """End one worker and reap it."""
        if kill:
            worker.process.kill()
        else:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        worker.process.join(5.0)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()
        worker.conn.close()

    def _finish(self, attempt: Attempt, keep: bool, kill: bool = False) -> None:
        """Retire an attempt; its worker goes back to idle or is stopped."""
        with self._lock:
            self.busy.remove(attempt)
            if keep and not self._closed:
                self._idle.append(attempt.worker)
                return
        self._stop(attempt.worker, kill=kill)

    def _observe(self, attempt: Attempt, outcome: RunOutcome) -> None:
        """Fold a worker's run into this process's registry — metrics only,
        since the worker already logged its ``kernel.run`` event."""
        state = _obs.get_state()
        if state is None or not isinstance(outcome, RunResult):
            return
        from repro.obs.registry import CYCLES_PER_SEC_BUCKETS

        kernel = attempt.task.cell.kernel
        state.registry.histogram(
            "repro_sim_cycles_per_sec",
            "Simulated cycles per host second, per kernel",
            buckets=CYCLES_PER_SEC_BUCKETS,
            kernel=kernel,
        ).observe(outcome.stats.simulated_cycles_per_sec)
        state.registry.counter(
            "repro_sim_runs_total", "Completed simulation runs", kernel=kernel
        ).inc()

    def collect(
        self, attempts: Optional[List[Attempt]] = None, timeout: Optional[float] = None
    ) -> List[Tuple[CellTask, RunOutcome]]:
        """Wait up to ``timeout`` for ``attempts`` (default: all busy) to
        report, die or pass their hard deadline; return those that ended."""
        attempts = list(self.busy) if attempts is None else attempts
        deadlines = [a.hard_deadline for a in attempts if a.hard_deadline is not None]
        if deadlines:
            until = max(0.0, min(deadlines) - time.monotonic())
            timeout = until if timeout is None else min(timeout, until)
        if attempts:
            _connection_wait(
                [a.worker.conn for a in attempts] + [a.worker.process.sentinel for a in attempts],
                timeout=timeout,
            )
        done: List[Tuple[CellTask, RunOutcome]] = []
        for attempt in attempts:
            cell = attempt.task.cell
            outcome = self._receive(attempt)
            if outcome is not None:
                self._finish(attempt, keep=True)
            elif not attempt.worker.process.is_alive():
                # Re-drain: the outcome may have landed just before death.
                outcome = self._receive(attempt) or FailedRun(
                    benchmark=cell.benchmark,
                    design_point=cell.design_point,
                    error_type="WorkerDiedError",
                    error=(
                        f"worker exited with code {attempt.worker.process.exitcode} "
                        "before reporting an outcome"
                    ),
                )
                self._finish(attempt, keep=False)
            elif attempt.hard_deadline is not None and time.monotonic() >= attempt.hard_deadline:
                self._finish(attempt, keep=False, kill=True)
                outcome = TimedOutRun(
                    benchmark=cell.benchmark,
                    design_point=cell.design_point,
                    budget=self.policy.wall_clock_budget,
                    elapsed=time.monotonic() - attempt.started_at,
                    error="worker SIGKILLed by the pool watchdog",
                    hard_kill=True,
                )
            else:
                continue
            self._observe(attempt, outcome)
            done.append((attempt.task, outcome))
        return done

    def run(self, task: CellTask) -> RunOutcome:
        """Run one attempt to its end, blocking the calling thread."""
        attempt = self.start(task)
        while True:
            for _task, outcome in self.collect([attempt]):
                return outcome

    def close(self, grace: Optional[float] = None) -> List[Tuple[CellTask, RunOutcome]]:
        """Stop every worker; no attempt starts after.

        With ``grace`` (single-threaded callers), busy workers get SIGTERM
        and what reports within ``grace`` is returned — a checkpointing
        worker's ``PreemptedRun``; the rest die or are killed unreported.
        Without, busy workers are killed and reaped by their collectors.
        """
        done: List[Tuple[CellTask, RunOutcome]] = []
        try:
            if grace is not None:
                for attempt in self.busy:
                    attempt.worker.process.terminate()
                deadline = time.monotonic() + grace
                while self.busy and time.monotonic() < deadline:
                    left = max(0.0, deadline - time.monotonic())
                    for task, outcome in self.collect(timeout=left):
                        if getattr(outcome, "error_type", None) != "WorkerDiedError":
                            done.append((task, outcome))
        finally:
            if grace is not None:
                for attempt in list(self.busy):
                    self._finish(attempt, keep=False, kill=True)
            with self._lock:
                self._closed = True
                idle, self._idle = self._idle, []
                busy = [a.worker for a in self.busy]
            for worker in busy:
                worker.process.kill()
            for worker in idle:
                self._stop(worker)
        return done
