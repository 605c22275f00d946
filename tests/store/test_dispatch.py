"""The shared-filesystem work queue: leases, reclamation, the worker loop.

Acceptance properties:

* enqueue is idempotent per digest; claim hands exactly one winner the
  lease (O_EXCL semantics);
* a stale lease (heartbeats older than the TTL, via an injected clock)
  is reclaimed by exactly one of any number of racing reclaimers;
* a zombie holder's next heartbeat raises LeaseLostError instead of
  stomping the new owner;
* run_worker drains the queue into the store, completes store hits
  without re-running, files deterministic failures, and releases
  timed-out cells for retry;
* run_campaign's queue backend is store-first (hits never enqueue),
  keeps the ledger rules of the local pool (no second campaign onto a
  non-empty ledger, resume skips done cells), and its ledger replays
  through `campaign status` unchanged.
"""

import math
import threading

import pytest

from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    campaign_status,
    execute_cell,
    run_campaign,
)
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness.runner import FailedRun, TimedOutRun
from repro.store.dispatch import (
    LeaseLostError,
    WorkQueue,
    run_worker,
)
from repro.store.store import ResultStore, cell_digest

CELL_A = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
CELL_B = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Queue mechanics
# ----------------------------------------------------------------------


def test_enqueue_is_idempotent(tmp_path):
    q = WorkQueue(str(tmp_path / "q"))
    d1, created1 = q.enqueue(CELL_A)
    d2, created2 = q.enqueue(CELL_A)
    assert d1 == d2 == cell_digest(CELL_A)
    assert created1 and not created2
    assert q.pending() == [d1]
    assert q.load_cell(d1).spec() == CELL_A.spec()


def test_claim_is_exclusive(tmp_path):
    q = WorkQueue(str(tmp_path / "q"))
    q.enqueue(CELL_A)
    lease = q.claim("w1")
    assert lease is not None and lease.worker == "w1"
    assert q.claim("w2") is None  # held
    q.release(lease)
    lease2 = q.claim("w2")
    assert lease2 is not None and lease2.worker == "w2"


def test_claim_order_is_oldest_first(tmp_path):
    import os
    import time

    q = WorkQueue(str(tmp_path / "q"))
    da, _ = q.enqueue(CELL_A)
    db, _ = q.enqueue(CELL_B)
    # Ensure distinct mtimes regardless of filesystem timestamp granularity.
    now = time.time()
    os.utime(os.path.join(q.pending_dir, da + ".json"), (now - 10, now - 10))
    os.utime(os.path.join(q.pending_dir, db + ".json"), (now, now))
    assert q.claim("w").digest == da


def test_stale_lease_reclaimed_exactly_once(tmp_path):
    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=60.0, clock=clock)
    digest, _ = q.enqueue(CELL_A)
    assert q.claim("dead-worker") is not None

    clock.advance(30.0)
    assert q.claim("w2") is None  # within TTL: still live

    clock.advance(31.0)  # now 61s since the only heartbeat
    assert q.stats()["stale_leases"] == 1
    winners = []
    lock = threading.Lock()

    def reclaim():
        if q._reclaim_stale(digest):
            with lock:
                winners.append(threading.get_ident())

    threads = [threading.Thread(target=reclaim) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(winners) == 1  # os.replace picks exactly one

    lease = q.claim("w2")
    assert lease is not None and lease.worker == "w2"


def test_zombie_heartbeat_raises_lease_lost(tmp_path):
    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=60.0, clock=clock)
    q.enqueue(CELL_A)
    zombie = q.claim("zombie")
    clock.advance(120.0)
    new = q.claim("fresh")  # reclaims the stale lease and takes over
    assert new is not None and new.worker == "fresh"
    with pytest.raises(LeaseLostError):
        q.heartbeat(zombie)
    q.heartbeat(new)  # the rightful owner renews fine


def test_heartbeat_renews_staleness_clock(tmp_path):
    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=60.0, clock=clock)
    q.enqueue(CELL_A)
    lease = q.claim("w1")
    clock.advance(50.0)
    q.heartbeat(lease)
    clock.advance(50.0)  # 100s total, but only 50 since the last beat
    assert q.claim("w2") is None
    assert q.stats()["stale_leases"] == 0


def test_fail_moves_to_failed_with_diagnosis(tmp_path):
    from repro.harness.runner import FailedRun

    q = WorkQueue(str(tmp_path / "q"))
    digest, _ = q.enqueue(CELL_A)
    lease = q.claim("w")
    outcome = FailedRun(
        benchmark="wc",
        design_point="HEAVYWT",
        error_type="DeadlockError",
        error="queue 0 wedged",
    )
    q.fail(lease, outcome)
    assert q.pending() == []
    failed = q.failed()
    assert failed[digest]["error_type"] == "DeadlockError"
    assert failed[digest]["spec"] == CELL_A.spec()
    # the spec travels with the diagnosis: operators can requeue it
    assert q.load_cell(digest).spec() == CELL_A.spec()


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------


def test_run_worker_drains_queue_into_store(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"))
    q.enqueue(CELL_A)
    q.enqueue(CELL_B)
    counters = run_worker(store, q, worker_id="w1")
    assert counters["ran"] == 2
    assert counters["failed"] == 0
    assert q.pending() == []
    for cell in (CELL_A, CELL_B):
        entry = store.get(cell_digest(cell))
        assert entry is not None
        direct = execute_cell(cell)
        assert entry.fingerprint == direct.fingerprint()  # bit-identical


def test_run_worker_completes_store_hits_without_rerunning(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    out = execute_cell(CELL_A)
    store.put(CELL_A, out)
    q = WorkQueue(str(tmp_path / "q"))
    q.enqueue(CELL_A)
    counters = run_worker(store, q, worker_id="w1")
    assert counters["store_hits"] == 1
    assert counters["ran"] == 0
    assert q.pending() == []


#: A permanently wedged queue: the scheduler diagnoses a deterministic
#: DeadlockError, which a worker must file (not retry, not publish).
WEDGED = CampaignCell(
    benchmark="wc",
    design_point="SYNCOPTI",
    trip_count=64,
    fault_plan=FaultPlan(
        seed=7,
        rules=(FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0),),
    ),
)


def test_run_worker_files_deterministic_failures(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"))
    digest, _ = q.enqueue(WEDGED)
    counters = run_worker(store, q, worker_id="w1")
    assert counters["failed"] == 1
    assert q.failed()[digest]["error_type"] == "DeadlockError"
    assert store.get(digest) is None  # failures are never published


# ----------------------------------------------------------------------
# run_campaign's queue backend (campaign run --workers-external)
# ----------------------------------------------------------------------


def _drain_in_background(tmp_path, q, **worker_kwargs):
    """Start a worker thread the first time ``q`` enqueues a cell; returns
    (the thread, the digests enqueued)."""
    worker = threading.Thread(
        target=run_worker,
        args=(ResultStore(str(tmp_path / "store")), WorkQueue(str(tmp_path / "q"))),
        kwargs={"worker_id": "bg", "drain": True, "poll": 0.05, **worker_kwargs},
    )
    enqueued = []
    orig_enqueue = q.enqueue

    def tracking_enqueue(cell, cid=None):
        res = orig_enqueue(cell, cid=cid)
        enqueued.append(res[0])
        if worker.ident is None:
            worker.start()
        return res

    q.enqueue = tracking_enqueue
    return worker, enqueued


def test_queue_backend_hits_never_enqueue(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL_A, execute_cell(CELL_A))
    q = WorkQueue(str(tmp_path / "q"))

    # CELL_A is stored; only CELL_B should hit the queue.  A worker
    # thread drains it while the campaign waits.
    worker, enqueued = _drain_in_background(tmp_path, q)
    ledger = str(tmp_path / "ledger.jsonl")
    report = run_campaign(
        [CELL_A, CELL_B],
        CampaignPolicy(wall_clock_budget=120),
        ledger_path=ledger,
        store=store,
        queue=q,
    )
    worker.join(timeout=60)

    assert enqueued == [cell_digest(CELL_B)]
    assert report.n_done == 2
    assert report.n_failed == 0
    assert report.store_hits == [CELL_A.key()]
    for cell in (CELL_A, CELL_B):
        assert report.outcomes[cell.key()].fingerprint() == execute_cell(
            cell
        ).fingerprint()

    # The ledger replays through the standard status path.
    status = campaign_status(ledger)
    assert status["complete"]
    assert status["by_status"] == {"done": 2}


def test_queue_backend_times_out_waiting_for_workers(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"))
    # No worker will ever answer: the one attempt waits out its budget.
    report = run_campaign(
        [CELL_A],
        CampaignPolicy(wall_clock_budget=0.05, max_attempts=1),
        store=store,
        queue=q,
    )
    out = report.outcomes[CELL_A.key()]
    assert isinstance(out, TimedOutRun) and not out.ok
    assert q.pending() == [cell_digest(CELL_A)]  # still queued for later


def test_queue_backend_reports_filed_failures_without_retrying(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"))
    worker, _enqueued = _drain_in_background(tmp_path, q)
    report = run_campaign([WEDGED], CampaignPolicy(wall_clock_budget=120), store=store, queue=q)
    worker.join(timeout=60)
    out = report.outcomes[WEDGED.key()]
    assert isinstance(out, FailedRun) and out.error_type == "DeadlockError"
    assert report.attempts[WEDGED.key()] == 1  # deterministic: filed, never retried


def test_queue_backend_refuses_a_non_empty_ledger(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL_A, execute_cell(CELL_A))
    q = WorkQueue(str(tmp_path / "q"))
    ledger = str(tmp_path / "ledger.jsonl")
    run_campaign([CELL_A], ledger_path=ledger, store=store, queue=q)
    with pytest.raises(FileExistsError):
        run_campaign([CELL_A], ledger_path=ledger, store=store, queue=q)
    starts = [
        r for r in CampaignLedger.read(ledger) if r.get("event") == "campaign-start"
    ]
    assert len(starts) == 1


def test_queue_backend_resume_enqueues_only_unfinished_cells(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"))
    ledger = str(tmp_path / "ledger.jsonl")

    # A partial external run: one worker delivers one cell, then the
    # dispatcher is interrupted with the other cell still in flight.
    worker, _enqueued = _drain_in_background(tmp_path, q, max_cells=1)
    done_keys = []

    def interrupt_after_first_done(line):
        if " done " in line:
            done_keys.append(line.split()[0])
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            [CELL_A, CELL_B],
            ledger_path=ledger,
            progress=interrupt_after_first_done,
            store=store,
            queue=q,
        )
    worker.join(timeout=60)
    (finished,) = done_keys
    (unfinished,) = [c for c in (CELL_A, CELL_B) if c.key() != finished]
    assert campaign_status(ledger)["in_flight"] == [unfinished.key()]

    worker, enqueued = _drain_in_background(tmp_path, q)
    report = run_campaign(
        [CELL_A, CELL_B],
        CampaignPolicy(wall_clock_budget=120),
        ledger_path=ledger,
        resume=True,
        store=store,
        queue=q,
    )
    worker.join(timeout=60)
    assert report.store_hits == [finished]  # done-ness comes from the store
    assert not report.skipped
    assert enqueued == [cell_digest(unfinished)]
    assert report.attempts[unfinished.key()] == 2  # the in-flight attempt counts
    assert report.outcomes[unfinished.key()].fingerprint() == execute_cell(
        unfinished
    ).fingerprint()
    status = campaign_status(ledger)
    assert status["complete"] and status["by_status"] == {"done": 2}


# ----------------------------------------------------------------------
# Crash-consistency hardening (PR 9): torn leases, heartbeat fencing,
# publish-failure release
# ----------------------------------------------------------------------


def test_torn_lease_is_reclaimed_after_one_ttl(tmp_path):
    """A claimer that died between O_EXCL create and the body write leaves
    an empty lease that can never heartbeat; it must age out by mtime
    instead of wedging the digest forever (found by the chaos drill)."""
    import os

    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=10.0, clock=clock)
    digest, _ = q.enqueue(CELL_A)
    torn = q._lease_path(digest)
    with open(torn, "wb"):
        pass  # zero bytes: the crash landed before the body write

    # Young enough to be a live claimer mid-create: not reclaimable.
    assert q.claim("w2") is None
    # Age it past the TTL (mtime is real time, so set it directly).
    old = clock() - 11.0
    os.utime(torn, (old, old))
    lease = q.claim("w2")
    assert lease is not None and lease.digest == digest
    assert lease.worker == "w2"


def test_heartbeat_thread_fences_after_sustained_io_errors(tmp_path):
    """Renewal I/O failing for longer than the TTL means the lease is
    stale on disk whether or not any renewal landed — the holder must
    fence itself instead of simulating into a reclaimed cell."""
    from repro.store.dispatch import _HeartbeatThread

    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=10.0, clock=clock)
    q.enqueue(CELL_A)
    lease = q.claim("w1")

    def sick_heartbeat(_lease):
        raise OSError(5, "simulated dead mount")

    q.heartbeat = sick_heartbeat
    beat = _HeartbeatThread(q, lease, every=0.005)
    beat.start()
    try:
        # Errors inside the TTL are absorbed...
        deadline = threading.Event()
        deadline.wait(0.05)
        assert not beat.lost.is_set()
        assert beat.io_failures > 0
        # ...but once the last successful renewal is a full TTL old the
        # thread fences itself.
        clock.advance(11.0)
        fenced = beat.lost.wait(timeout=5.0)
        assert fenced
    finally:
        beat.stop()
        beat.join(timeout=5.0)


def test_heartbeat_thread_recovers_from_transient_errors(tmp_path):
    from repro.store.dispatch import _HeartbeatThread

    clock = FakeClock()
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=10.0, clock=clock)
    q.enqueue(CELL_A)
    lease = q.claim("w1")
    real_heartbeat, fail_once = q.heartbeat, [True]

    def flaky_heartbeat(lse):
        if fail_once:
            fail_once.clear()
            raise OSError(5, "one hiccup")
        real_heartbeat(lse)

    q.heartbeat = flaky_heartbeat
    beat = _HeartbeatThread(q, lease, every=0.005)
    beat.start()
    try:
        ok = threading.Event()
        for _ in range(200):
            if beat.io_failures >= 1 and not fail_once:
                doc = q._read_lease(lease.path)
                if doc is not None and doc.get("time") == clock():
                    break
            ok.wait(0.005)
        assert beat.io_failures == 1
        assert not beat.lost.is_set()
    finally:
        beat.stop()
        beat.join(timeout=5.0)


def test_run_worker_releases_cell_when_publish_fails(tmp_path):
    """A failed store.put (ENOSPC/EIO) is not acknowledged: the cell goes
    back to pending for any worker to retry, and the retry succeeds."""
    store = ResultStore(str(tmp_path / "store"))
    q = WorkQueue(str(tmp_path / "q"), lease_ttl=5.0)
    q.enqueue(CELL_A)

    real_put, broken = store.put, [True]

    def flaky_put(cell, outcome, provenance=None):
        if broken:
            broken.clear()
            raise OSError(28, "no space left on device")
        return real_put(cell, outcome, provenance=provenance)

    store.put = flaky_put
    counters = run_worker(store, q, worker_id="w1", drain=True, poll=0.01)
    assert counters["io_errors"] == 1
    assert counters["released"] == 1
    assert counters["ran"] == 1  # the retry landed
    assert store.contains(cell_digest(CELL_A))
    assert q.pending() == [] and q.failed() == {}
