"""The pipeline_scaling experiment: structure, metrics, and the paper trend."""

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.pipeline.scaling import pipeline_scaling


@pytest.fixture(scope="module")
def small_result():
    return pipeline_scaling(
        scale=0.1,
        benchmarks=("wc",),
        stage_counts=(2, 3),
        design_points=("EXISTING", "HEAVYWT"),
    )


class TestStructure:
    def test_registered_experiment(self):
        assert "pipeline_scaling" in ALL_EXPERIMENTS

    def test_grids_complete_and_clean(self, small_result):
        data = small_result.data
        assert not small_result.failures
        for point in ("EXISTING", "HEAVYWT"):
            for k in (2, 3):
                assert data["speedup"][point]["wc"][k] > 0
                assert data["geomean_speedup"][point][k] > 0
                assert 0.0 <= data["bus_utilization"][point]["wc"][k] <= 1.0
                assert data["comm_op_delay"][point][k] is not None

    def test_hop_delays_cover_every_hop(self, small_result):
        # A 3-stage wc pipeline has hops sourced at stages 0 and 1.
        hops = small_result.data["hop_delays"]["HEAVYWT"]["wc"][3]
        assert set(hops) == {0, 1}

    def test_text_renders_tables(self, small_result):
        assert "Pipeline scaling" in small_result.text
        assert "GeoMean" in small_result.text
        assert "Bus util" in small_result.text


class TestCommunicationCosts:
    def test_software_queues_cost_orders_more_per_op(self, small_result):
        delays = small_result.data["comm_op_delay"]
        for k in (2, 3):
            assert delays["EXISTING"][k] > 10 * delays["HEAVYWT"][k]

    def test_software_queues_load_the_shared_bus(self, small_result):
        util = small_result.data["mean_bus_utilization"]
        for k in (2, 3):
            assert util["EXISTING"][k] > util["HEAVYWT"][k]


class TestPaperTrend:
    """The acceptance-criteria shape, at reduced scale for test budget."""

    @pytest.fixture(scope="class")
    def trend(self):
        return pipeline_scaling(
            scale=0.25,
            benchmarks=("wc", "adpcmdec"),
            stage_counts=(2, 8),
            design_points=("EXISTING", "SYNCOPTI", "HEAVYWT"),
        )

    def test_heavywt_keeps_scaling(self, trend):
        gm = trend.data["geomean_speedup"]["HEAVYWT"]
        assert gm[8] > gm[2] * 1.1

    def test_existing_saturates(self, trend):
        gm = trend.data["geomean_speedup"]["EXISTING"]
        assert gm[8] < gm[2] * 1.05

    def test_syncopti_stays_ahead_of_existing(self, trend):
        data = trend.data["geomean_speedup"]
        for k in (2, 8):
            assert data["SYNCOPTI"][k] > 2 * data["EXISTING"][k]

    def test_existing_comm_bill_grows_with_depth(self, trend):
        """Per-op software-queue cost does not shrink as hops multiply."""
        delays = trend.data["comm_op_delay"]
        assert delays["EXISTING"][8] > delays["HEAVYWT"][8] * 10



class TestUnbuildablePairs:
    """A (benchmark, K) the partitioner cannot build fails per cell, and
    each buildable pair is partitioned once."""

    def test_each_pair_partitions_once_and_gaps_render_per_point(self, monkeypatch):
        from repro.harness import programs
        from repro.harness.campaign import CampaignCell, execute_cell
        from repro.harness.experiments import experiment_trips
        from repro.workloads import suite

        calls = []
        real = suite.partition_loop_k

        def counting(loop, n_stages):
            calls.append(n_stages)
            return real(loop, n_stages)

        monkeypatch.setattr(suite, "partition_loop_k", counting)
        programs.clear()
        points = ("EXISTING", "HEAVYWT")
        result = pipeline_scaling(
            scale=0.1, benchmarks=("fir", "wc"), stage_counts=(2, 3, 4, 6), design_points=points
        )
        # K=2 is the paper's own partition.  fir condenses to 5 SCCs, so its
        # K=6 fails once per point; every other (benchmark, K) lowers once.
        assert len(calls) == 7
        assert sorted((f.benchmark, f.design_point, f.error_type) for f in result.failures) == [
            ("fir", "EXISTING/K=6", "PartitionError"),
            ("fir", "HEAVYWT/K=6", "PartitionError"),
        ]

        def cycles(bench, **fields):
            cell = CampaignCell(bench, trip_count=experiment_trips(bench, 0.1), **fields)
            return execute_cell(cell).cycles

        speedup = result.data["speedup"]
        for point in points:
            for bench in ("fir", "wc"):
                for k in (2, 3, 4, 6):
                    if (bench, k) == ("fir", 6):
                        assert speedup[point][bench][k] is None
                        continue
                    pipe = cycles(bench, design_point=point, kind="pipeline", stages=k)
                    assert speedup[point][bench][k] == cycles(bench, kind="single") / pipe
