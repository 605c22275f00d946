"""Campaign-level checkpointing: resume-from-snapshot workers, preemption
records, checkpoint journalling, status reporting, and ledger I/O resilience.
"""

import errno
import os
import signal
import struct
import time

import pytest

from repro.faults import FailureClass, classify_outcome
from repro.faults.classify import TRANSIENT_ERROR_TYPES
from repro.harness.campaign import (
    LEDGER_RETRIES,
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    CellTask,
    LedgerWriteError,
    _outcome_record,
    campaign_status,
    cell_checkpoint_path,
    execute_cell,
    render_status,
    run_campaign,
)
from repro.harness.pool import run_attempt
from repro.harness.runner import FailedRun, PreemptedRun, RunResult
from repro.sim.checkpoint import CHECKPOINT_VERSION, Checkpointer, recover_snapshot

CELL = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=400)


def _reference():
    return execute_cell(CampaignCell(**{**CELL.__dict__}))


def _preempt_to_snapshot(tmp_path, cell=None, after=2, every=5000):
    """Run a cell until its Nth snapshot, then preempt — leaving a valid
    snapshot file behind, exactly like an evicted worker would."""
    cell = cell or CELL
    path = cell_checkpoint_path(str(tmp_path), cell)
    ck = Checkpointer(every=every, path=path)
    taken = []

    def note(snap, p):
        taken.append(snap.cycle)
        if len(taken) >= after:
            ck.request_preempt()

    ck.on_snapshot = note
    outcome = execute_cell(cell, checkpoint=ck)
    assert isinstance(outcome, PreemptedRun)
    return path, outcome


class TestCellCheckpointPath:
    def test_key_is_flattened_to_one_filename(self, tmp_path):
        path = cell_checkpoint_path(str(tmp_path), CELL)
        assert os.path.dirname(path) == str(tmp_path)
        name = os.path.basename(path)
        assert "/" not in name and name.endswith(".ckpt")
        assert name.startswith("wc_EXISTING")


class TestExecuteCellCheckpointing:
    def test_preempt_then_resume_reproduces_fingerprint(self, tmp_path):
        ref = _reference()
        path, preempted = _preempt_to_snapshot(tmp_path)
        assert not preempted.ok
        assert preempted.snapshot_path == path
        assert preempted.cycle > 0
        assert os.path.exists(path)

        recovered = recover_snapshot(path)
        assert recovered is not None and not recovered.used_fallback
        resumed = execute_cell(
            CELL,
            checkpoint=Checkpointer(every=5000, path=path),
            resume_from=recovered.snapshot,
        )
        assert isinstance(resumed, RunResult) and resumed.ok
        assert resumed.fingerprint() == ref.fingerprint()
        assert resumed.cycles == ref.cycles
        assert resumed.extras["resumed_from_cycle"] == recovered.snapshot.cycle
        assert resumed.extras["checkpoints_taken"] >= 1

    def test_preempted_run_is_transient(self):
        out = PreemptedRun(benchmark="wc", design_point="EXISTING", cycle=100.0)
        assert classify_outcome(out) is FailureClass.TRANSIENT
        assert "PreemptedRun" in TRANSIENT_ERROR_TYPES

    def test_host_io_errors_are_transient(self):
        # Satellite: a worker that dies on ENOSPC/EIO while writing must be
        # retried, not recorded as a deterministic failure.
        for name in ("OSError", "IOError", "LedgerWriteError"):
            assert name in TRANSIENT_ERROR_TYPES
        out = FailedRun(
            benchmark="wc",
            design_point="EXISTING",
            error_type="OSError",
            error="[Errno 28] No space left on device",
        )
        assert classify_outcome(out) is FailureClass.TRANSIENT


class TestWorkerCheckpointFlow:
    """Drive a pool worker's attempt (``run_attempt``) in-process."""

    def _run_worker(self, cell, ckpt_path, attempt=2, allow_resume=True):
        notes = []
        old_handler = signal.getsignal(signal.SIGTERM)
        try:
            task = CellTask(
                cell,
                attempt,
                checkpoint_dir=os.path.dirname(ckpt_path),
                allow_resume=allow_resume,
            )
            outcome = run_attempt(task, None, 5000, notes.append)
            # The attempt's SIGTERM preemption handler is gone afterwards.
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGTERM, old_handler)
        return notes, outcome

    def test_worker_resumes_from_snapshot_and_cleans_up(self, tmp_path):
        ref = _reference()
        path, _ = _preempt_to_snapshot(tmp_path)
        notes, outcome = self._run_worker(CELL, path, attempt=2, allow_resume=True)
        assert isinstance(outcome, RunResult) and outcome.ok
        assert outcome.fingerprint() == ref.fingerprint()
        assert outcome.extras["resumed_from_cycle"] > 0
        # Journal notes carry the cell key and attempt for the ledger.
        assert notes and all(n.cell == CELL.key() and n.attempt == 2 for n in notes)
        assert [n.cycle for n in notes] == sorted(n.cycle for n in notes)
        # Snapshots are discarded once the cell completes: stale state must
        # never leak into a later campaign.
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".prev")

    def test_recheck_attempts_start_cold(self, tmp_path):
        path, _ = _preempt_to_snapshot(tmp_path)
        notes, outcome = self._run_worker(CELL, path, attempt=1, allow_resume=False)
        assert isinstance(outcome, RunResult) and outcome.ok
        assert "resumed_from_cycle" not in outcome.extras

    @pytest.mark.parametrize("stamped", [1, 2, 3, 4, 5], ids=["v1", "v2", "v3", "v4", "v5"])
    def test_v1_snapshot_quarantined_then_cold_start(self, tmp_path, stamped):
        """A snapshot stamped with a retired format is never unpickled: it
        is quarantined and the cell reruns from cycle 0.  v1 machines
        carried the list calendar; v2 machines lack the slotted records and
        build-time bindings of v3; v3 machines lack the memory system's
        bound pools and set tables and the mechanisms' bindings of v4; v4
        machines' configs still carry the retired kernel name; v5 machines'
        stream-cache and trace configs still carry an ``enabled`` flag."""
        assert CHECKPOINT_VERSION == 6
        path, _ = _preempt_to_snapshot(tmp_path)
        generations = [path, path + ".prev"]
        for generation in generations:  # both generations in the old format
            with open(generation, "r+b") as fh:
                data = bytearray(fh.read())
                struct.pack_into("<I", data, 8, stamped)  # header: magic, version, ...
                fh.seek(0)
                fh.write(data)
        notes, outcome = self._run_worker(CELL, path, attempt=2, allow_resume=True)
        assert isinstance(outcome, RunResult) and outcome.ok
        assert "resumed_from_cycle" not in outcome.extras
        quarantined = [f for f in os.listdir(tmp_path) if ".quarantined" in f]
        assert len(quarantined) == len(generations), "old snapshots are kept as evidence"
        assert outcome.fingerprint() == _reference().fingerprint()

    def test_corrupt_snapshot_quarantined_then_cold_start(self, tmp_path):
        path = cell_checkpoint_path(str(tmp_path), CELL)
        with open(path, "wb") as fh:
            fh.write(b"definitely not a snapshot")
        notes, outcome = self._run_worker(CELL, path, attempt=2, allow_resume=True)
        assert isinstance(outcome, RunResult) and outcome.ok
        assert "resumed_from_cycle" not in outcome.extras
        quarantined = [f for f in os.listdir(tmp_path) if ".quarantined" in f]
        assert quarantined, "corrupt snapshot should be kept for forensics"
        assert outcome.fingerprint() == _reference().fingerprint()


class TestLedgerRecordsAndStatus:
    def test_preempted_record_gives_the_attempt_back(self, tmp_path):
        ledger_path = str(tmp_path / "c.jsonl")
        ledger = CampaignLedger(ledger_path).open()
        preempted = PreemptedRun(
            benchmark="wc",
            design_point="EXISTING",
            cycle=12345.0,
            snapshot_path=str(tmp_path / "wc.ckpt"),
        )
        ledger.append(
            {"event": "cell-start", "cell": CELL.key(), "attempt": 3, "spec": CELL.spec()}
        )
        rec = _outcome_record(CELL, 3, preempted, terminal=False, elapsed=1.0)
        assert rec["status"] == "preempted" and rec["transient"] is True
        assert rec["cycle"] == 12345.0
        ledger.append(rec)
        ledger.close()
        hist = CampaignLedger.replay(ledger_path)[CELL.key()]
        # Preemption is the host's doing: the attempt is refunded so
        # preemptible fleets can't exhaust a cell's retry budget.
        assert hist.attempts == 2
        assert not hist.terminal
        assert hist.checkpoint_cycle == 12345.0
        assert hist.checkpoint_path == str(tmp_path / "wc.ckpt")

    def test_status_reports_checkpoint_progress(self, tmp_path):
        ledger_path = str(tmp_path / "c.jsonl")
        ledger = CampaignLedger(ledger_path).open()
        ledger.append(
            {"event": "cell-start", "cell": CELL.key(), "attempt": 1, "spec": CELL.spec()}
        )
        ledger.append(
            {
                "event": "cell-ckpt",
                "cell": CELL.key(),
                "attempt": 1,
                "cycle": 20000.0,
                "path": str(tmp_path / "gone.ckpt"),
                "count": 1,
                "time": time.time() - 30,
            }
        )
        ledger.append(
            {
                "event": "cell-ckpt",
                "cell": CELL.key(),
                "attempt": 1,
                "cycle": 40000.0,
                "path": str(tmp_path / "gone.ckpt"),
                "count": 2,
                "time": time.time() - 5,
            }
        )
        ledger.close()
        status = campaign_status(ledger_path)
        entry = status["checkpoints"][CELL.key()]
        assert entry["cycle"] == 40000.0
        assert entry["count"] == 2
        assert entry["on_disk"] is False  # snapshot file is gone
        assert entry["age"] is not None and entry["age"] >= 4
        rendered = render_status(status)
        assert "ckpt cycle 40000" in rendered

    def test_done_cells_drop_out_of_the_checkpoint_section(self, tmp_path):
        ledger_path = str(tmp_path / "c.jsonl")
        ledger = CampaignLedger(ledger_path).open()
        ledger.append(
            {"event": "cell-start", "cell": CELL.key(), "attempt": 1, "spec": CELL.spec()}
        )
        ledger.append(
            {
                "event": "cell-ckpt",
                "cell": CELL.key(),
                "attempt": 1,
                "cycle": 20000.0,
                "path": None,
                "count": 1,
                "time": time.time(),
            }
        )
        ledger.append(
            {
                "event": "cell-end",
                "cell": CELL.key(),
                "attempt": 1,
                "terminal": True,
                "status": "done",
                "cycles": 123,
                "fingerprint": "abc",
                "time": time.time(),
            }
        )
        ledger.close()
        status = campaign_status(ledger_path)
        assert status["checkpoints"] == {}
        assert "checkpointed" not in render_status(status)


class TestLedgerResilience:
    def test_append_rides_out_transient_write_errors(self, tmp_path, monkeypatch):
        ledger = CampaignLedger(str(tmp_path / "c.jsonl")).open()
        real_write = os.write
        failures = {"left": 2}

        def flaky_write(fd, data):
            # Fail the record write (not the fragment terminator) twice.
            if fd == ledger._fd and data.endswith(b"}\n") and failures["left"] > 0:
                failures["left"] -= 1
                real_write(fd, data[: len(data) // 2])  # torn partial write
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", flaky_write)
        monkeypatch.setattr(time, "sleep", lambda s: None)
        ledger.append({"event": "cell-start", "cell": "a/b#1", "attempt": 1})
        ledger.close()
        records = CampaignLedger.read(str(tmp_path / "c.jsonl"))
        # The torn fragments are skipped; exactly one intact record survives.
        assert records == [{"event": "cell-start", "cell": "a/b#1", "attempt": 1}]

    def test_append_surfaces_ledger_write_error_after_retries(
        self, tmp_path, monkeypatch
    ):
        ledger = CampaignLedger(str(tmp_path / "c.jsonl")).open()
        real_write = os.write
        calls = {"n": 0}

        def dead_disk(fd, data):
            if fd == ledger._fd and data.endswith(b"}\n"):
                calls["n"] += 1
                raise OSError(errno.EIO, "I/O error")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", dead_disk)
        monkeypatch.setattr(time, "sleep", lambda s: None)
        with pytest.raises(LedgerWriteError):
            ledger.append({"event": "cell-start", "cell": "a/b#1", "attempt": 1})
        assert calls["n"] == LEDGER_RETRIES
        ledger.close()

    def test_read_skips_interior_garbage_lines(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        with open(path, "w") as fh:
            fh.write('{"event": "cell-start", "cell": "a", "attempt": 1}\n')
            fh.write('{"event": "cell-e')  # torn fragment, no newline
            fh.write("\n")
            fh.write(
                '{"event": "cell-end", "cell": "a", "attempt": 1, '
                '"terminal": true, "status": "done"}\n'
            )
        records = CampaignLedger.read(path)
        assert [r["event"] for r in records] == ["cell-start", "cell-end"]


class TestPolicyCheckpointDir:
    def test_explicit_dir_wins(self):
        policy = CampaignPolicy(checkpoint_every=100, checkpoint_dir="/x/y")
        assert policy.resolve_checkpoint_dir("l.jsonl") == "/x/y"

    def test_default_derives_from_ledger(self):
        policy = CampaignPolicy(checkpoint_every=100)
        assert policy.resolve_checkpoint_dir("l.jsonl") == "l.jsonl.ckpt"

    def test_off_means_none(self):
        policy = CampaignPolicy()
        assert policy.resolve_checkpoint_dir("l.jsonl") is None
        assert CampaignPolicy(checkpoint_every=100).resolve_checkpoint_dir(None) is None

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            CampaignPolicy(checkpoint_every=0).validate()


class TestCampaignResumeEndToEnd:
    """Acceptance: watchdog-killed attempts resume from snapshots and the
    finished cell's fingerprint matches an uninterrupted run."""

    def test_timeouts_resume_from_checkpoints(self, tmp_path):
        cell = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=1200)
        ref = execute_cell(
            CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=1200)
        )
        ledger_path = str(tmp_path / "camp.jsonl")
        policy = CampaignPolicy(
            jobs=1,
            wall_clock_budget=1.0,
            max_attempts=12,
            backoff_base=0.01,
            checkpoint_every=8000,
        )
        report = run_campaign([cell], policy, ledger_path=ledger_path)
        outcome = report.outcomes[cell.key()]
        assert outcome.ok, f"{outcome.error_type}: {outcome.error}"
        assert outcome.fingerprint() == ref.fingerprint()

        records = CampaignLedger.read(ledger_path)
        ckpt_events = [r for r in records if r.get("event") == "cell-ckpt"]
        assert ckpt_events, "no checkpoint notes journalled"
        done = [r for r in records if r.get("status") == "done"]
        assert len(done) == 1
        if report.attempts[cell.key()] > 1:
            # Retried attempts must resume mid-run, not from cycle 0.
            assert done[0].get("resumed_from_cycle", 0) > 0
        # Success discards the cell's snapshots.
        ckpt_dir = ledger_path + ".ckpt"
        leftovers = [f for f in os.listdir(ckpt_dir) if f.endswith(".ckpt")]
        assert leftovers == []
        assert campaign_status(ledger_path)["complete"]
