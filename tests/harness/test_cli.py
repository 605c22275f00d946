"""The ``python -m repro`` entry point."""

import pytest

from repro.__main__ import main
from repro.harness.experiments import ALL_EXPERIMENTS


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
