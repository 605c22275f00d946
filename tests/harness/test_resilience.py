"""Resilient-sweep behavior: failed cells become data, not aborts."""

import math

import pytest

from repro.core.design_points import DesignPointConfigError, get_design_point
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness import experiments
from repro.harness.campaign import CampaignCell, execute_cell
from repro.harness.experiments import GAP, sweep
from repro.harness.runner import FailedRun, RunResult, run_benchmark


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


class TestConfigPairing:
    def test_stream_cache_config_rejected_by_plain_syncopti(self):
        sc_cfg = get_design_point("SYNCOPTI_SC").build_config()
        with pytest.raises(DesignPointConfigError, match="mislabeled"):
            run_benchmark("fir", "SYNCOPTI", 64, config=sc_cfg)

    def test_plain_config_rejected_by_stream_cache_point(self):
        plain = get_design_point("SYNCOPTI").build_config()
        with pytest.raises(DesignPointConfigError, match="stream_cache"):
            run_benchmark("fir", "SYNCOPTI_SC", 64, config=plain)

    def test_sensitivity_overrides_still_accepted(self):
        cfg = get_design_point("HEAVYWT").build_config()
        cfg.queues.depth = 64
        assert run_benchmark("fir", "HEAVYWT", 64, config=cfg).ok


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
        # Figures dispatch per-cell through campaign.execute_cell, so the
        # injection seam is the campaign module's cell planner (which may
        # legitimately return a FailedRun, e.g. for unpartitionable loops).
        from repro.harness import campaign

        real = campaign._plan_cell

        def flaky(cell):
            if cell.benchmark == "wc":
                return FailedRun(
                    benchmark=cell.benchmark,
                    design_point=cell.design_point,
                    error_type="DeadlockError",
                    error="injected for test",
                    post_mortem=None,
                )
            return real(cell)

        monkeypatch.setattr(campaign, "_plan_cell", flaky)
        result = experiments.figure8(scale=0.1)
        assert result.failures and result.failures[0].benchmark == "wc"
        assert result.data["ratios"]["wc"]["producer"] is None
        # Gap marker in the table row, failure note in the footer.
        wc_row = next(line for line in result.text.splitlines() if "wc" in line)
        assert GAP in wc_row
        assert "cell(s) failed" in result.text
        # GeoMean still computed over the surviving benchmarks.
        assert result.data["geomean"]["producer"] is not None
