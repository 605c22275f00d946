"""The ``python -m repro`` entry point."""

import hashlib
import multiprocessing.util
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import CAMPAIGN_GRIDS, _campaign_grid, main
from repro.harness.campaign import CampaignLedger
from repro.harness.experiments import ALL_EXPERIMENTS, EXHIBITS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out
        assert "pipeline_scaling" in out


class TestRun:
    def test_runs_a_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "adpcmdec" in out

    def test_runs_multiple_names(self, capsys):
        assert main(["run", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])

    def test_non_positive_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure7", "--scale", "0"])

    def test_scale_passed_through(self, capsys):
        # A scaled figure run completes and prints its exhibit header.
        assert main(["run", "figure9", "--scale", "0.05"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_kernel_names_accepted_and_unknown_rejected(self, capsys):
        assert main(["run", "table1", "--kernel", "event"]) == 0
        assert main(["run", "table1", "--kernel", "reference"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "table1", "--kernel", "warp"])
        assert exc_info.value.code == 2  # argparse usage error
        assert "--kernel" in capsys.readouterr().err


class TestUsageErrors:
    """A numeric flag that means nothing at zero or below exits 2 with a
    usage error naming the flag, not a traceback, before anything starts."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["campaign", "run", "--jobs", "0"], "--jobs"),
            (["campaign", "resume", "--jobs", "0"], "--jobs"),
            (["serve", "--jobs", "0"], "--jobs"),
            (["serve", "--max-inflight", "0"], "--max-inflight"),
            (["campaign", "run", "--max-attempts", "0"], "--max-attempts"),
            (["campaign", "run", "--budget", "0"], "--budget"),
            (["campaign", "run", "--checkpoint-every", "0"], "--checkpoint-every"),
            (["campaign", "run", "--scale", "0"], "--scale"),
            (["serve", "--budget", "0"], "--budget"),
            (["serve", "--query-timeout", "0"], "--query-timeout"),
            (["store", "worker", "--lease-ttl", "-1"], "--lease-ttl"),
            (["store", "worker", "--lease-ttl", "0"], "--lease-ttl"),
            (["store", "worker", "--budget", "0"], "--budget"),
            (["run", "table1", "--jobs", "0"], "--jobs"),
        ],
        ids=[
            "campaign-run", "campaign-resume", "serve-jobs", "serve-max-inflight",
            "campaign-max-attempts", "campaign-budget", "campaign-checkpoint-every",
            "campaign-scale", "serve-budget", "serve-query-timeout",
            "worker-lease-ttl-negative", "worker-lease-ttl-zero", "worker-budget", "run-jobs",
        ],
    )
    def test_non_positive_count_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, flag):
        started = []
        monkeypatch.setattr(multiprocessing.util, "spawnv_passfds", lambda *a: started.append(a))
        monkeypatch.setattr(os, "fork", lambda: started.append("fork"))

        def serve_forever(*args, **kwargs):
            raise AssertionError("the server started")

        monkeypatch.setattr("repro.store.service.serve_forever", serve_forever)
        if argv[0] in ("serve", "store"):
            argv = argv + ["--store", str(tmp_path / "store")]
        elif argv[0] == "campaign":
            argv = argv + ["--grid", "smoke", "--ledger", str(tmp_path / "l.jsonl")]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert f"argument {flag}: must be positive" in capsys.readouterr().err
        # Rejected before anything starts: no process, no store, no ledger.
        assert started == []
        assert os.listdir(tmp_path) == []


class TestClosedStdout:
    def test_a_reader_gone_before_the_first_write_ends_quietly(self, tmp_path):
        # ``... | head -1`` with head already gone: the first write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "store", "stats", "--store", str(tmp_path / "s")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src),
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert proc.returncode == 1


class TestCampaignGrids:
    def test_grids_are_the_simulating_exhibits_and_smoke(self):
        assert CAMPAIGN_GRIDS == (
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "pipeline_scaling",
            "smoke",
        )

    @pytest.mark.parametrize(
        "grid, digest",
        [
            ("figure7", "7898a80527990b09"),
            ("figure12", "8c58eb95244e8983"),
            ("smoke", "cdad49cd410df801"),
        ],
    )
    def test_grids_keep_their_cells_in_order(self, grid, digest):
        # Ledgers and stores written by earlier campaigns name these keys.
        keys = "\n".join(cell.key() for cell in _campaign_grid(grid, 1.0))
        assert hashlib.sha256(keys.encode()).hexdigest()[:16] == digest

    def test_a_figure_grid_journals_exactly_its_cells(self, tmp_path, capsys):
        ledger = str(tmp_path / "figure9.jsonl")
        argv = ["campaign", "run", "--grid", "figure9", "--scale", "0.05", "--ledger", ledger]
        assert main(argv) == 0
        journalled = {r["cell"] for r in CampaignLedger.read(ledger) if "cell" in r}
        assert journalled == {cell.key() for cell in EXHIBITS["figure9"].cells(0.05)}
        assert len(journalled) == 18
