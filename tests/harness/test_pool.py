"""The shared worker pool: persistence, kernel metrics, process hygiene.

* workers persist between attempts and start lazily;
* a run in a pool worker lands its kernel metrics in the caller's
  registry exactly once per simulated cell;
* however a pool's user ends — a normal return, a watchdog kill, a
  KeyboardInterrupt out of the progress callback, ``LocalExecutor.close``
  — no worker process outlives it.
"""

import asyncio
import multiprocessing
import os
import sys
import threading

import pytest

from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import (
    CampaignCell,
    CampaignPolicy,
    CellTask,
    execute_cell,
    run_campaign,
)
from repro.harness.pool import WorkerPool
from repro.harness.runner import TimedOutRun
from repro.obs import runtime
from repro.obs.registry import MetricsRegistry

CELLS = [
    CampaignCell(benchmark=b, design_point=p, trip_count=48)
    for b in ("wc", "fir")
    for p in ("HEAVYWT", "EXISTING")
]

#: One giant stall inside a single scheduler step: only the hard kill stops it.
INSTEP_PLAN = FaultPlan(
    seed=7,
    rules=(
        FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=1e9, queue_id=0, count=1),
    ),
)


def _stray_children():
    """Processes whose parent is this one, bar multiprocessing's helpers."""
    me = str(os.getpid())
    strays = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        state, ppid = stat[stat.rindex(")") + 1 :].split()[:2]
        if ppid != me:
            continue
        if b"forkserver" in cmdline or b"resource_tracker" in cmdline:
            continue
        strays.append((int(entry), state))
    return strays


def _assert_no_workers_left():
    assert multiprocessing.active_children() == []
    assert _stray_children() == []


class TestPool:
    def test_workers_start_lazily_and_persist(self):
        pool = WorkerPool(CampaignPolicy(jobs=1), multiprocessing.get_context())
        try:
            assert pool.processes() == []
            first = pool.run(CellTask(CELLS[0]))
            (worker,) = pool.processes()
            second = pool.run(CellTask(CELLS[1]))
            assert pool.processes() == [worker]  # the same process ran both
            for cell, outcome in ((CELLS[0], first), (CELLS[1], second)):
                assert outcome.fingerprint() == execute_cell(cell).fingerprint()
        finally:
            pool.close()
        _assert_no_workers_left()

    def test_threads_share_one_pool_without_losing_workers(self):
        # More waiting threads than cores, switching as often as possible:
        # a lost update to the idle/busy lists would start extra workers,
        # strand a busy one, or hand one worker two attempts.
        pool = WorkerPool(CampaignPolicy(jobs=3), multiprocessing.get_context("forkserver"))
        cells = [
            CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=32 + i)
            for i in range(12)
        ]
        results = {}

        def drive(batch):
            for cell in batch:
                results[cell.key()] = pool.run(CellTask(cell))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(cells[i::3],)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.busy == [] and len(pool.processes()) <= 3
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        for cell in cells:
            assert results[cell.key()].fingerprint() == execute_cell(cell).fingerprint()
        _assert_no_workers_left()

    def test_all_hit_campaign_starts_no_process(self, tmp_path):
        from repro.store.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        run_campaign(CELLS[:2], store=store)
        before = multiprocessing.active_children()
        report = run_campaign(CELLS[:2], store=store)
        assert sorted(report.store_hits) == sorted(c.key() for c in CELLS[:2])
        assert before == [] and multiprocessing.active_children() == []


class TestKernelMetricsFold:
    @pytest.fixture
    def registry(self):
        registry = MetricsRegistry()
        runtime.configure(registry=registry)
        yield registry
        runtime.shutdown()

    def test_pool_runs_reach_the_parent_registry_once(self, registry, tmp_path):
        from repro.store.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        store.put(CELLS[0], execute_cell(CELLS[0]))  # a hit: never simulated
        runs = registry.counter("repro_sim_runs_total", kernel="reference")
        hist = registry.histogram("repro_sim_cycles_per_sec", kernel="reference")
        before = runs.value  # the in-process run above counted itself
        report = run_campaign(CELLS, CampaignPolicy(jobs=2), store=store)
        simulated = len(CELLS) - len(report.store_hits)
        assert simulated == 3
        assert runs.value - before == simulated
        assert hist.snapshot()["count"] - before == simulated


class TestProcessHygiene:
    def test_after_a_normal_return(self):
        report = run_campaign(CELLS, CampaignPolicy(jobs=2))
        assert report.n_done == len(CELLS)
        _assert_no_workers_left()

    def test_after_a_hard_kill(self):
        stuck = CampaignCell(
            benchmark="wc", design_point="EXISTING", trip_count=64,
            fault_plan=INSTEP_PLAN,
        )
        report = run_campaign(
            [stuck, CELLS[0]],
            CampaignPolicy(jobs=2, wall_clock_budget=0.4, kill_grace=0.4, max_attempts=1),
        )
        timed = report.outcomes[stuck.key()]
        assert isinstance(timed, TimedOutRun) and timed.hard_kill
        _assert_no_workers_left()

    def test_after_keyboard_interrupt_from_progress(self):
        def interrupt(line):
            raise KeyboardInterrupt

        slow = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=400)
        with pytest.raises(KeyboardInterrupt):
            run_campaign([CELLS[0], slow], CampaignPolicy(jobs=2), progress=interrupt)
        _assert_no_workers_left()

    def test_after_local_executor_close(self, tmp_path):
        from repro.store.service import LocalExecutor, QueryService
        from repro.store.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        executor = LocalExecutor(store, jobs=2)

        async def main():
            svc = QueryService(store, executor)
            return await svc.answer_batch(
                [{"benchmark": c.benchmark, "design_point": c.design_point,
                  "trip_count": c.trip_count} for c in CELLS[:2]]
            )

        try:
            answers = asyncio.run(main())
            pids = [p.pid for p in executor.pool.processes()]
        finally:
            executor.close()
        assert all(a["ok"] for a in answers)
        assert pids
        _assert_no_workers_left()
        for pid in pids:  # forkserver children: gone, not just unlisted
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
