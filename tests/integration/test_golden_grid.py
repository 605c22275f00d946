"""The simulator reproduces the recorded golden table, cell for cell.

``perfbench/golden.json`` records the cycles and ``RunStats`` fingerprint of
every cell the benchmark simulates.  The tests here rebuild the Figure
7/9/12 grid (nine benchmarks x five design points plus the single-threaded
baseline) with the public campaign API and compare each cell against its
recorded entry.  A fingerprint covers every counter and every float
component of every thread, so a speed change that reorders two float adds
into ``ThreadStats.components`` fails here even when every relative check
elsewhere still agrees with itself.

The table is read, never written: only a change to the simulated model may
regenerate it (``perfbench/make_golden.py``).
"""

import json
import os
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.harness.campaign import CampaignCell, execute_cell
from repro.harness.experiments import EXPERIMENT_TRIPS
from repro.sim.kernel import available_kernels
from repro.workloads.suite import BENCHMARK_ORDER

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "perfbench", "golden.json",
)

#: The grid's design points; ``SINGLE`` is the single-threaded baseline.
GRID_POINTS = ("HEAVYWT", "SYNCOPTI", "SYNCOPTI_SC_Q64", "EXISTING", "MEMOPTI", "SINGLE")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def grid(scale: float, kernel: Optional[str] = None) -> Iterator[Tuple[str, CampaignCell]]:
    """``(golden key, cell)`` of each grid cell at ``scale`` x EXPERIMENT_TRIPS.

    Keys are ``benchmark/POINT/trips``; ``kernel=None`` keeps the cell's
    default kernel.
    """
    extra = {} if kernel is None else {"kernel": kernel}
    for bench in BENCHMARK_ORDER:
        trips = max(32, int(EXPERIMENT_TRIPS[bench] * scale))
        for point in GRID_POINTS:
            if point == "SINGLE":
                cell = CampaignCell(benchmark=bench, kind="single", trip_count=trips, **extra)
            else:
                cell = CampaignCell(
                    benchmark=bench, design_point=point, trip_count=trips, **extra
                )
            yield f"{bench}/{point}/{trips}", cell


def assert_matches_golden(cells, golden) -> None:
    mismatches = []
    n = 0
    for key, cell in cells:
        n += 1
        outcome = execute_cell(cell)
        assert outcome.ok, f"{key}: {outcome!r}"
        got = {"cycles": outcome.cycles, "fingerprint": outcome.fingerprint()}
        want = {name: golden[key][name] for name in ("cycles", "fingerprint")}
        if got != want:
            mismatches.append(f"{key}: got {got}, golden {want}")
    assert n == len(BENCHMARK_ORDER) * len(GRID_POINTS)
    assert not mismatches, "\n".join(mismatches)


def test_grid_at_experiment_trips_matches_golden(golden):
    assert_matches_golden(grid(1.0), golden)


@pytest.mark.parametrize("kernel", available_kernels())
def test_grid_at_tenth_scale_matches_golden_on_every_kernel(golden, kernel):
    assert_matches_golden(grid(0.1, kernel), golden)
