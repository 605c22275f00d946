"""Integration tests asserting the paper's qualitative claims (shapes).

These are the reproduction targets from DESIGN.md §4: orderings, approximate
factors and crossovers — not absolute cycle counts.  They run at reduced
iteration counts, so the bands are deliberately generous; EXPERIMENTS.md
records the full-scale numbers.
"""


import pytest

from repro.harness.runner import run_benchmark, run_single_threaded
from repro.sim.stats import geomean
from repro.workloads.suite import BENCHMARK_ORDER

TRIPS = {
    "art": 200,
    "equake": 100,
    "mcf": 80,
    "bzip2": 256,
    "adpcmdec": 200,
    "epicdec": 100,
    "wc": 250,
    "fir": 200,
    "fft2": 100,
}


@pytest.fixture(scope="module")
def grid():
    """All benchmarks x key design points, shared by the claim tests."""
    points = ("HEAVYWT", "SYNCOPTI", "SYNCOPTI_SC_Q64", "EXISTING", "MEMOPTI")
    out = {}
    for bench in BENCHMARK_ORDER:
        out[bench] = {
            p: run_benchmark(bench, p, TRIPS[bench]).cycles for p in points
        }
        out[bench]["SINGLE"] = run_single_threaded(bench, TRIPS[bench]).cycles
    return out


def gm(values):
    return geomean(list(values))


class TestSection4Claims:
    def test_heavywt_fastest_everywhere(self, grid):
        """Figure 7: HEAVYWT provides the lowest COMM-OP delay."""
        for bench, row in grid.items():
            floor = row["HEAVYWT"] * 0.98  # tolerate timing noise
            assert row["SYNCOPTI"] >= floor, bench
            assert row["EXISTING"] >= floor, bench

    def test_syncopti_beats_software_queues(self, grid):
        """Figure 7: SYNCOPTI ~1.6x over EXISTING/MEMOPTI on average."""
        ratio = gm(row["EXISTING"] / row["SYNCOPTI"] for row in grid.values())
        assert ratio > 1.3

    def test_syncopti_trails_heavywt_modestly(self, grid):
        """Figure 7: ~31% average slowdown vs HEAVYWT."""
        ratio = gm(row["SYNCOPTI"] / row["HEAVYWT"] for row in grid.values())
        assert 1.1 < ratio < 2.2

    def test_wc_is_syncoptis_worst_case(self, grid):
        """Section 4.4: for wc SYNCOPTI is almost twice as slow as HEAVYWT."""
        wc_ratio = grid["wc"]["SYNCOPTI"] / grid["wc"]["HEAVYWT"]
        assert wc_ratio > 1.5

    def test_memopti_no_better_than_existing_on_average(self, grid):
        """Section 4.4: write-forward recirculation vs prioritized writebacks."""
        ratio = gm(row["MEMOPTI"] / row["EXISTING"] for row in grid.values())
        assert ratio >= 0.97

    def test_heavywt_speedup_over_single_threaded(self, grid):
        """Figure 9: geomean speedup ~1.29x, every benchmark >= ~1.0x."""
        speedups = {
            b: row["SINGLE"] / row["HEAVYWT"] for b, row in grid.items()
        }
        assert gm(speedups.values()) > 1.05
        assert all(s > 0.85 for s in speedups.values()), speedups

    def test_software_queues_negate_parallelization(self, grid):
        """Section 4.4: EXISTING multithreaded can be slower than 1 thread."""
        losses = [
            b for b, row in grid.items() if row["EXISTING"] > row["SINGLE"]
        ]
        assert len(losses) >= 3  # tight loops lose their parallelism


class TestSection5Claims:
    def test_sc_q64_closes_most_of_the_gap_to_heavywt(self, grid):
        """Figure 12 / abstract: SC+Q64 within ~2% of HEAVYWT in the paper.

        Our simplified model keeps a larger residual gap (line-granular
        write-forward batching interacts with the rebuilt kernels' stage
        balance — see EXPERIMENTS.md), but SC+Q64 must land much closer to
        HEAVYWT than base SYNCOPTI does."""
        sc = gm(row["SYNCOPTI_SC_Q64"] / row["HEAVYWT"] for row in grid.values())
        so = gm(row["SYNCOPTI"] / row["HEAVYWT"] for row in grid.values())
        assert sc < 1.35
        assert sc < so

    def test_sc_q64_roughly_2x_over_existing(self, grid):
        """Abstract: 2.0x speedup over existing commercial CMPs."""
        ratio = gm(
            row["EXISTING"] / row["SYNCOPTI_SC_Q64"] for row in grid.values()
        )
        assert ratio > 1.5

    def test_optimizations_monotone(self, grid):
        """SC+Q64 never slower than base SYNCOPTI (on average)."""
        ratio = gm(
            row["SYNCOPTI_SC_Q64"] / row["SYNCOPTI"] for row in grid.values()
        )
        assert ratio <= 1.0


class TestFigure6Claims:
    def test_transit_delay_tolerated(self):
        """Figure 6: 1-cycle vs 10-cycle HEAVYWT interconnect ~equal."""
        for bench in ("wc", "adpcmdec", "fir"):
            c1 = run_benchmark(
                bench, "HEAVYWT", TRIPS[bench], overrides={"transit_delay": 1}
            ).cycles
            c10 = run_benchmark(
                bench, "HEAVYWT", TRIPS[bench], overrides={"transit_delay": 10}
            ).cycles
            assert c10 / c1 < 1.10, bench

    def test_bzip2_outer_loop_sensitivity(self):
        """Figure 6: bzip2's outer queue cannot be pipelined; it alone
        slows at 10-cycle transit, and the 64-entry queue recovers it."""
        base = run_benchmark(
            "bzip2", "HEAVYWT", TRIPS["bzip2"], overrides={"transit_delay": 1}
        ).cycles
        slow = run_benchmark(
            "bzip2", "HEAVYWT", TRIPS["bzip2"], overrides={"transit_delay": 10}
        ).cycles
        wide = run_benchmark(
            "bzip2",
            "HEAVYWT",
            TRIPS["bzip2"],
            overrides={"transit_delay": 10, "queue_depth": 64},
        ).cycles
        assert slow > base  # exposed round trip
        assert wide < slow  # bigger queue restores decoupling


class TestFigure8Claims:
    def test_high_frequency_band(self):
        """Communication every ~2-20 dynamic application instructions."""
        for bench in BENCHMARK_ORDER:
            r = run_benchmark(bench, "HEAVYWT", TRIPS[bench])
            for t in (r.producer, r.consumer):
                assert 0.03 <= t.comm_to_app_ratio <= 0.8, bench

    def test_wc_is_the_extreme(self):
        r_wc = run_benchmark("wc", "HEAVYWT", TRIPS["wc"])
        r_eq = run_benchmark("equake", "HEAVYWT", TRIPS["equake"])
        assert r_wc.producer.comm_to_app_ratio > r_eq.producer.comm_to_app_ratio
