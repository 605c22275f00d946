"""Resilient-sweep behavior: failed cells become data, not aborts."""

import math

import pytest

from repro.dswp.partition import PartitionError
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness import experiments
from repro.harness.campaign import CampaignCell, execute_cell, run_cell
from repro.harness.experiments import GAP, sweep
from repro.harness.runner import FailedRun, RunResult, run_benchmark, run_single_threaded
from repro.sim.kernel import DeadlockError


def _wedge_plan():
    return FaultPlan(
        seed=7,
        rules=(
            FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0),
        ),
    )


class TestRunBenchmarkResilient:
    """:func:`execute_cell` runs one benchmark cell resiliently: a failing
    simulation becomes a :class:`FailedRun`, a usage error still raises."""

    def test_success_returns_run_result(self):
        out = execute_cell(CampaignCell("fir", "HEAVYWT", trip_count=64))
        assert isinstance(out, RunResult) and out.ok
        assert out.machine is not None

    def test_simulation_failure_becomes_failed_run(self):
        cell = CampaignCell("wc", "EXISTING", trip_count=64, fault_plan=_wedge_plan())
        out = execute_cell(cell)
        assert isinstance(out, FailedRun) and not out.ok
        assert out.error_type == "DeadlockError"
        assert out.post_mortem is not None
        assert "wc/EXISTING" in out.describe()

    def test_usage_errors_still_raise(self):
        with pytest.raises(KeyError):
            execute_cell(CampaignCell("fir", "NO_SUCH_POINT", trip_count=64))
        with pytest.raises(KeyError):
            execute_cell(CampaignCell("no_such_benchmark", "HEAVYWT", trip_count=64))


class TestRunCellRaises:
    """:func:`run_cell` raises what :func:`execute_cell` records, and the
    two run functions are thin wrappers over it."""

    def test_wedged_cell_raises_the_deadlock_execute_cell_records(self):
        cell = CampaignCell("wc", "EXISTING", trip_count=64, fault_plan=_wedge_plan())
        with pytest.raises(DeadlockError) as excinfo:
            run_cell(cell)
        recorded = execute_cell(cell)
        assert isinstance(recorded, FailedRun)
        assert excinfo.value.post_mortem.render() == recorded.post_mortem.render()

    def test_unpartitionable_pipeline_raises_and_is_recorded(self):
        # fir condenses to 5 SCCs, too few for six stages.
        cell = CampaignCell("fir", "HEAVYWT", kind="pipeline", stages=6, trip_count=40)
        with pytest.raises(PartitionError):
            run_cell(cell)
        recorded = execute_cell(cell)
        assert isinstance(recorded, FailedRun)
        assert recorded.error_type == "PartitionError"
        assert recorded.design_point == "HEAVYWT/K=6"

    def test_pipeline_cell_takes_no_trace(self):
        # A default trace drops events and a filtered one loses the comm
        # events the cell's hop delays are folded from.
        cell = CampaignCell("wc", "EXISTING", kind="pipeline", stages=3, trip_count=48)
        with pytest.raises(ValueError, match="comm trace"):
            run_cell(cell, trace=True)

    @pytest.mark.parametrize("bench", ["wc", "mcf"])
    @pytest.mark.parametrize("point", ["EXISTING", "SYNCOPTI_SC"])
    def test_run_benchmark_is_the_cell_run(self, bench, point):
        cell = CampaignCell(bench, point, trip_count=48)
        assert run_benchmark(bench, point, 48).fingerprint() == execute_cell(cell).fingerprint()

    def test_run_single_threaded_is_the_cell_run(self):
        cell = CampaignCell("wc", kind="single", trip_count=48)
        assert run_single_threaded("wc", 48).fingerprint() == execute_cell(cell).fingerprint()


class TestConfigPairing:
    def test_sensitivity_overrides_still_accepted(self):
        assert run_benchmark("fir", "HEAVYWT", 64, overrides={"queue_depth": 64}).ok


class TestSweepIsolation:
    """Acceptance: one deliberately deadlocking cell must not take the
    grid down, and its FailedRun must carry a usable diagnosis."""

    def test_partial_grid_completes_around_wedged_cell(self):
        def fault_plan_for(bench, point):
            if bench == "wc" and point == "EXISTING":
                return _wedge_plan()
            return None

        grid = sweep(
            ["wc", "fir"],
            ["EXISTING", "HEAVYWT"],
            trip_count=64,
            fault_plan_for=fault_plan_for,
        )
        bad = grid["wc"]["EXISTING"]
        assert isinstance(bad, FailedRun)
        # Every other cell still ran to completion.
        assert grid["wc"]["HEAVYWT"].ok
        assert grid["fir"]["EXISTING"].ok
        assert grid["fir"]["HEAVYWT"].ok
        # The post-mortem names the blocked cores...
        pm = bad.post_mortem
        assert pm.blocked_cores() == [0, 1]
        # ...and the stuck channel's produce/consume counts.
        ch = pm.channels[0]
        assert ch.queue_id == 0 and ch.wedged
        assert ch.n_produced > 0 and ch.n_consumed > 0
        assert ch.n_freed == 0
        assert any("WEDGED" in s for s in ch.suspicions())


class TestFigureGapMarkers:
    def test_figure_renders_gap_for_failed_cell(self, monkeypatch):
        # Figures dispatch per-cell through campaign.execute_cell, which
        # records what campaign.run_cell raises: that is the injection seam.
        from repro.harness import campaign

        real = campaign.run_cell

        def flaky(cell, **kwargs):
            if cell.benchmark == "wc":
                raise DeadlockError("injected for test")
            return real(cell, **kwargs)

        monkeypatch.setattr(campaign, "run_cell", flaky)
        result = experiments.figure8(scale=0.1)
        assert result.failures and result.failures[0].benchmark == "wc"
        assert result.data["ratios"]["wc"]["producer"] is None
        # Gap marker in the table row, failure note in the footer.
        wc_row = next(line for line in result.text.splitlines() if "wc" in line)
        assert GAP in wc_row
        assert "cell(s) failed" in result.text
        # GeoMean still computed over the surviving benchmarks.
        assert result.data["geomean"]["producer"] is not None
