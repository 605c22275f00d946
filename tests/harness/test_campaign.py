"""The resilient campaign runner: pool parity, watchdog, retries, ledger.

The acceptance properties under test:

* a pooled campaign's cycles and fingerprints are bit-identical to the
  serial in-process path;
* a wedged cell under a wall-clock budget is stopped by the watchdog
  (soft in-process layer or hard pool kill), recorded as a TimedOutRun,
  and does not block the remaining cells;
* transient failures retry with bounded attempts, deterministic failures
  fail fast;
* the JSONL ledger survives crashes (torn tail ignored) and `resume`
  answers stored cells from the store and re-queues in-flight ones;
* stored determinism fingerprints act as a golden-regression store.
"""

import json
import math
import os

import pytest

from repro.faults import (
    FailureClass,
    FaultKind,
    FaultPlan,
    FaultRule,
    classify_outcome,
)
from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    campaign_status,
    execute_cell,
    render_status,
    run_campaign,
    run_cells,
)
from repro.harness.experiments import GAP, sweep
from repro.harness.runner import FailedRun, RunResult, TimedOutRun

# ----------------------------------------------------------------------
# Fault-plan fixtures
# ----------------------------------------------------------------------

#: Wedges queue 0 permanently: the canonical *deterministic* failure — the
#: scheduler diagnoses a deadlock in milliseconds, and a seeded re-run
#: would reproduce it exactly.
WEDGE_PLAN = FaultPlan(
    seed=7,
    rules=(
        FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0),
    ),
)

#: Delays every queue-slot free by 2e6 cycles: EXISTING's software queue
#: spins through each delay, so the run stays *live* (no deadlock to
#: diagnose) while burning host seconds — the honest watchdog target.
SLOW_PLAN = FaultPlan(
    seed=7,
    rules=(FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=2e6),),
)

#: One 1e9-cycle stall: EXISTING models the whole spin window inside a
#: single scheduler step, starving the in-process check — only the pool's
#: hard SIGKILL layer can stop it.
INSTEP_PLAN = FaultPlan(
    seed=7,
    rules=(
        FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=1e9, queue_id=0, count=1),
    ),
)


def _grid_cells(benchmarks=("wc", "fir"), points=("HEAVYWT", "EXISTING"), trips=64):
    return [
        CampaignCell(benchmark=b, design_point=p, trip_count=trips)
        for b in benchmarks
        for p in points
    ]


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


class TestCampaignCell:
    def test_key_is_stable_and_spec_sensitive(self):
        a = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=64)
        b = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=64)
        assert a.key() == b.key()
        c = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=65)
        assert a.key() != c.key()
        d = CampaignCell(
            benchmark="wc",
            design_point="HEAVYWT",
            trip_count=64,
            overrides={"queue_depth": 64},
        )
        assert a.key() != d.key()

    def test_key_independent_of_overrides_dict_order(self):
        a = CampaignCell(
            benchmark="wc", overrides={"queue_depth": 64, "transit_delay": 10}
        )
        b = CampaignCell(
            benchmark="wc", overrides={"transit_delay": 10, "queue_depth": 64}
        )
        assert a.key() == b.key()

    def test_spec_roundtrip_with_infinite_fault_plan(self):
        cell = CampaignCell(
            benchmark="wc",
            design_point="EXISTING",
            trip_count=64,
            fault_plan=WEDGE_PLAN,
        )
        rebuilt = CampaignCell.from_spec(json.loads(json.dumps(cell.spec())))
        assert rebuilt.key() == cell.key()
        assert math.isinf(rebuilt.fault_plan.rules[0].magnitude)

    def test_validate_rejects_bad_cells(self):
        with pytest.raises(ValueError, match="kind"):
            CampaignCell(benchmark="wc", kind="nope").validate()
        with pytest.raises(ValueError, match="stages"):
            CampaignCell(benchmark="wc", kind="pipeline").validate()

    def test_duplicate_keys_rejected(self):
        cells = _grid_cells() + _grid_cells()[:1]
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign(cells)


# ----------------------------------------------------------------------
# Pool parity with the serial path
# ----------------------------------------------------------------------


class TestPoolParity:
    def test_pooled_grid_matches_serial_cycles_and_fingerprints(self):
        cells = _grid_cells()
        serial = {c.key(): execute_cell(c) for c in cells}
        pooled = run_cells(cells, jobs=2)
        for cell in cells:
            s, p = serial[cell.key()], pooled[cell.key()]
            assert s.ok and p.ok
            assert s.cycles == p.cycles
            assert s.fingerprint() == p.fingerprint()

    def test_sweep_jobs_matches_serial(self):
        serial = sweep(["wc"], ["HEAVYWT", "SYNCOPTI"], trip_count=64)
        pooled = sweep(["wc"], ["HEAVYWT", "SYNCOPTI"], trip_count=64, jobs=2)
        for point in ("HEAVYWT", "SYNCOPTI"):
            assert serial["wc"][point].cycles == pooled["wc"][point].cycles
            assert (
                serial["wc"][point].fingerprint()
                == pooled["wc"][point].fingerprint()
            )

    def test_sweep_takes_one_shot_iterables(self):
        grid = sweep(
            iter(["wc", "fir"]), (p for p in ["HEAVYWT"]), trip_count=32
        )
        assert sorted(grid) == ["fir", "wc"]
        for bench in ("wc", "fir"):
            assert list(grid[bench]) == ["HEAVYWT"]
            assert grid[bench]["HEAVYWT"].ok

    def test_pooled_results_strip_machine_but_keep_stats(self):
        (cell,) = _grid_cells(benchmarks=("fir",), points=("HEAVYWT",))
        outcome = run_cells([cell], jobs=2)[cell.key()]
        assert isinstance(outcome, RunResult)
        assert outcome.machine is None and outcome.trace is None
        assert outcome.stats.cycles == outcome.cycles


# ----------------------------------------------------------------------
# Failure classification and retry policy
# ----------------------------------------------------------------------


class TestClassification:
    def test_deadlock_is_deterministic(self):
        failed = FailedRun(
            benchmark="wc",
            design_point="EXISTING",
            error_type="DeadlockError",
            error="x",
        )
        assert classify_outcome(failed) is FailureClass.DETERMINISTIC

    def test_timeout_and_dead_worker_are_transient(self):
        timed = TimedOutRun(
            benchmark="wc", design_point="EXISTING", budget=1.0, elapsed=2.0
        )
        assert classify_outcome(timed) is FailureClass.TRANSIENT
        died = FailedRun(
            benchmark="wc",
            design_point="EXISTING",
            error_type="WorkerDiedError",
            error="x",
        )
        assert classify_outcome(died) is FailureClass.TRANSIENT

    def test_success_classifies_none(self):
        assert classify_outcome(execute_cell(_grid_cells()[0])) is None

    def test_backoff_is_seeded_and_grows(self):
        policy = CampaignPolicy(backoff_base=0.25, backoff_seed=3)
        first = policy.backoff("k", 1)
        assert first == policy.backoff("k", 1)  # deterministic
        assert policy.backoff("k", 3) > first  # exponential
        assert policy.backoff("other", 1) != first  # per-cell jitter


class TestWatchdogAndRetries:
    def test_wedged_cell_fails_fast_and_grid_completes(self, tmp_path):
        cells = _grid_cells(points=("HEAVYWT", "SYNCOPTI"))
        cells[1] = CampaignCell(
            benchmark="wc",
            design_point="SYNCOPTI",
            trip_count=64,
            fault_plan=WEDGE_PLAN,
        )
        ledger = str(tmp_path / "ledger.jsonl")
        report = run_campaign(
            cells,
            CampaignPolicy(jobs=2, max_attempts=3, backoff_base=0.01),
            ledger_path=ledger,
        )
        bad = report.outcomes[cells[1].key()]
        assert isinstance(bad, FailedRun)
        assert bad.error_type == "DeadlockError"
        # Deterministic: one attempt, no retries burned.
        assert report.attempts[cells[1].key()] == 1
        assert report.retries == 0
        # The other three cells all completed.
        assert sum(1 for o in report.outcomes.values() if o.ok) == 3
        status = campaign_status(ledger)
        assert status["by_status"] == {"done": 3, "failed": 1}
        assert status["complete"]

    def test_soft_watchdog_times_out_live_wedge_and_retries(self, tmp_path):
        slow = CampaignCell(
            benchmark="wc",
            design_point="EXISTING",
            trip_count=400,
            fault_plan=SLOW_PLAN,
        )
        ok_cell = CampaignCell(benchmark="fir", design_point="HEAVYWT", trip_count=64)
        ledger = str(tmp_path / "ledger.jsonl")
        report = run_campaign(
            [slow, ok_cell],
            CampaignPolicy(
                jobs=2, wall_clock_budget=0.5, max_attempts=2, backoff_base=0.01
            ),
            ledger_path=ledger,
        )
        timed = report.outcomes[slow.key()]
        assert isinstance(timed, TimedOutRun)
        # The in-process layer fired: post-mortem flushed, no SIGKILL needed.
        assert not timed.hard_kill
        assert timed.post_mortem is not None
        assert timed.elapsed > timed.budget
        # Transient: retried to exhaustion.
        assert report.attempts[slow.key()] == 2
        assert report.retries == 1
        # The sibling cell was not blocked.
        assert report.outcomes[ok_cell.key()].ok
        status = campaign_status(ledger)
        assert status["by_status"] == {"done": 1, "timeout": 1}

    def test_hard_watchdog_kills_in_step_wedge(self, tmp_path):
        # One giant stall is modeled inside a single scheduler step, so the
        # in-process check never runs — the pool must SIGKILL the worker.
        stuck = CampaignCell(
            benchmark="wc",
            design_point="EXISTING",
            trip_count=64,
            fault_plan=INSTEP_PLAN,
        )
        ledger = str(tmp_path / "ledger.jsonl")
        report = run_campaign(
            [stuck],
            CampaignPolicy(jobs=1, wall_clock_budget=0.4, kill_grace=0.4, max_attempts=1),
            ledger_path=ledger,
        )
        timed = report.outcomes[stuck.key()]
        assert isinstance(timed, TimedOutRun)
        assert timed.hard_kill
        (rec,) = [
            r for r in CampaignLedger.read(ledger) if r.get("event") == "cell-end"
        ]
        assert rec["status"] == "timeout" and rec["hard_kill"] is True

    def test_worker_crash_is_transient_worker_died(self, tmp_path, monkeypatch):
        # A worker that dies without reporting (OOM kill, segfault) must be
        # recorded as WorkerDiedError and retried as transient.  Workers
        # fork from this process, so they inherit the patched attempt.
        import repro.harness.pool as pool_mod

        def dying_attempt(task, *args):
            os._exit(17)

        monkeypatch.setattr(pool_mod, "run_attempt", dying_attempt)
        cell = _grid_cells()[0]
        report = run_campaign(
            [cell],
            CampaignPolicy(jobs=1, max_attempts=2, backoff_base=0.01),
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        out = report.outcomes[cell.key()]
        assert isinstance(out, FailedRun)
        assert out.error_type == "WorkerDiedError"
        assert "17" in out.error
        assert report.attempts[cell.key()] == 2  # transient -> retried

    def test_usage_error_crosses_pool_as_deterministic_failure(self):
        bogus = CampaignCell(benchmark="no_such_benchmark", trip_count=64)
        report = run_campaign([bogus], CampaignPolicy(jobs=1, max_attempts=3))
        out = report.outcomes[bogus.key()]
        assert isinstance(out, FailedRun)
        assert out.error_type == "KeyError"
        assert "no_such_benchmark" in out.detail  # full traceback preserved
        assert report.attempts[bogus.key()] == 1  # fail fast


# ----------------------------------------------------------------------
# Ledger: crash safety and resume
# ----------------------------------------------------------------------


class TestLedger:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CampaignLedger(path).open()
        ledger.append({"event": "cell-start", "cell": "a", "attempt": 1})
        ledger.append(
            {"event": "cell-end", "cell": "a", "attempt": 1, "terminal": True,
             "status": "done", "cycles": 10, "fingerprint": "f" * 16}
        )
        ledger.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "cell-end", "cell": "b", "attem')  # crash mid-write
        records = CampaignLedger.read(path)
        assert [r["event"] for r in records] == ["cell-start", "cell-end"]
        hist = CampaignLedger.replay(path)["a"]
        assert hist.terminal and hist.status == "done"
        assert hist.fingerprint == "f" * 16

    def test_existing_ledger_requires_resume(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        cells = _grid_cells(benchmarks=("fir",), points=("HEAVYWT",))
        run_campaign(cells, ledger_path=path)
        with pytest.raises(FileExistsError, match="resume"):
            run_campaign(cells, ledger_path=path)

    def test_resume_skips_done_and_requeues_in_flight(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        cells = _grid_cells()  # wc/fir x HEAVYWT/EXISTING
        # First campaign: only the first two cells.
        first = run_campaign(cells[:2], ledger_path=path)
        assert all(o.ok for o in first.outcomes.values())
        # Simulate a crash: cells[2] was started (attempt 1) but never ended.
        ledger = CampaignLedger(path).open()
        ledger.append(
            {
                "event": "cell-start",
                "cell": cells[2].key(),
                "attempt": 1,
                "spec": cells[2].spec(),
            }
        )
        ledger.close()
        status = campaign_status(path)
        assert status["in_flight"] == [cells[2].key()]
        assert not status["complete"]
        # Resume over the full grid.
        report = run_campaign(cells, ledger_path=path, resume=True)
        # Done cells are answered from the store, not re-run.
        assert set(report.store_hits) == {cells[0].key(), cells[1].key()}
        assert report.outcomes[cells[0].key()].fingerprint() == (
            first.outcomes[cells[0].key()].fingerprint()
        )
        assert cells[0].key() not in report.attempts
        assert not report.skipped
        # The in-flight cell re-ran with its attempt counter preserved.
        assert report.outcomes[cells[2].key()].ok
        assert report.attempts[cells[2].key()] == 2
        # The never-started cell ran as attempt 1.
        assert report.attempts[cells[3].key()] == 1
        status = campaign_status(path)
        assert status["complete"] and status["by_status"] == {"done": 4}
        # Exactly one cell-end per completed cell: no re-runs of done work.
        ends = {}
        for rec in CampaignLedger.read(path):
            if rec.get("event") == "cell-end":
                ends[rec["cell"]] = ends.get(rec["cell"], 0) + 1
        assert ends == {c.key(): 1 for c in cells}

    def test_render_status_is_human_readable(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        run_campaign(
            _grid_cells(benchmarks=("fir",), points=("HEAVYWT",)), ledger_path=path
        )
        text = render_status(campaign_status(path))
        assert "done" in text and "complete" in text


# ----------------------------------------------------------------------
# Determinism fingerprints as a golden-regression store
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_recheck_verifies_recorded_fingerprints(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        cells = _grid_cells(benchmarks=("fir",), points=("HEAVYWT",))
        run_campaign(cells, ledger_path=path)
        report = run_campaign(
            cells,
            CampaignPolicy(recheck=True),
            ledger_path=path,
            resume=True,
        )
        # Re-ran (not skipped) and reproduced the golden fingerprint.
        assert report.outcomes[cells[0].key()].ok
        assert not report.mismatches

    def test_tampered_fingerprint_is_caught(self, tmp_path):
        from repro.store.store import ResultStore, cell_digest, result_from_entry

        path = str(tmp_path / "ledger.jsonl")
        cells = _grid_cells(benchmarks=("fir",), points=("HEAVYWT",))
        run_campaign(cells, ledger_path=path)
        # Replace the golden entry with a valid one whose fingerprint differs.
        store = ResultStore(path + ".store")
        digest = cell_digest(cells[0])
        tampered = result_from_entry(store.get(digest))
        tampered.stats.threads[0].app_instructions += 1
        os.remove(store.entry_path(digest))
        store.put(cells[0], tampered)
        assert store.get(digest).fingerprint != execute_cell(cells[0]).fingerprint()
        report = run_campaign(
            cells, CampaignPolicy(recheck=True), ledger_path=path, resume=True
        )
        assert report.mismatches == [cells[0].key()]
        bad = report.outcomes[cells[0].key()]
        assert isinstance(bad, FailedRun)
        assert bad.error_type == "FingerprintMismatchError"
        last_end = [
            r for r in CampaignLedger.read(path) if r.get("event") == "cell-end"
        ][-1]
        assert last_end["status"] == "fingerprint-mismatch"

    def test_fingerprint_stable_across_processes(self):
        (cell,) = _grid_cells(benchmarks=("wc",), points=("SYNCOPTI",))
        local = execute_cell(cell).fingerprint()
        pooled = run_cells([cell], jobs=2)[cell.key()].fingerprint()
        assert local == pooled


# ----------------------------------------------------------------------
# Declarative sweep wedge (the satellite acceptance scenario)
# ----------------------------------------------------------------------


class TestDeclarativeSweepWedge:
    def test_sweep_completes_around_declarative_wedge(self):
        def fault_plan_for(bench, point):
            if bench == "wc" and point == "EXISTING":
                return WEDGE_PLAN
            return None

        for jobs in (1, 2):
            grid = sweep(
                ["wc", "fir"],
                ["EXISTING", "HEAVYWT"],
                trip_count=64,
                fault_plan_for=fault_plan_for,
                jobs=jobs,
            )
            bad = grid["wc"]["EXISTING"]
            assert isinstance(bad, FailedRun)
            assert bad.error_type == "DeadlockError"
            assert grid["wc"]["HEAVYWT"].ok
            assert grid["fir"]["EXISTING"].ok
            assert grid["fir"]["HEAVYWT"].ok
            # The post-mortem (which crosses the pool at jobs=2) names the
            # blocked cores...
            pm = bad.post_mortem
            assert pm.blocked_cores() == [0, 1]
            # ...and the stuck channel's produce/consume counts.
            ch = pm.channels[0]
            assert ch.queue_id == 0 and ch.wedged
            assert ch.n_produced > 0 and ch.n_consumed > 0
            assert ch.n_freed == 0
            assert any("WEDGED" in s for s in ch.suspicions())


# ----------------------------------------------------------------------
# Pipeline cells
# ----------------------------------------------------------------------


class TestPipelineCells:
    def test_pipeline_cell_carries_extras_across_pool(self):
        cell = CampaignCell(
            benchmark="wc",
            design_point="SYNCOPTI",
            kind="pipeline",
            stages=3,
            trip_count=64,
        )
        serial = execute_cell(cell)
        pooled = run_cells([cell], jobs=2)[cell.key()]
        assert serial.ok and pooled.ok
        assert serial.cycles == pooled.cycles
        assert pooled.extras["stages"] == 3
        assert pooled.extras["hop_delays"] == serial.extras["hop_delays"]
        assert pooled.extras["bus_utilization"] == serial.extras["bus_utilization"]

    def test_single_cell_runs_unpartitioned_loop(self):
        cell = CampaignCell(benchmark="fir", kind="single", trip_count=64)
        out = execute_cell(cell)
        assert out.ok and out.design_point == "SINGLE"
