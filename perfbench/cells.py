"""Every cell a workload simulates, and the golden fingerprint table.

Golden entries are keyed by :func:`label` — benchmark, design point and trip
count, with no kernel — so a cell checks against the same entry on every
kernel: ``grid-event`` (event kernel) and ``campaign-reference`` (reference
kernel) verify one table, which makes every run a kernel-invariance check.

``golden.json`` is written by ``make_golden.py`` and committed.  A change
meant only to speed up the simulator must leave it untouched.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Mapping, Optional, Tuple

from repro.harness.campaign import CampaignCell
from repro.harness.experiments import EXPERIMENT_TRIPS
from repro.workloads.suite import BENCHMARK_ORDER

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The design points of Figures 7, 9 and 12 that the grid covers.
GRID_POINTS = ("HEAVYWT", "SYNCOPTI", "SYNCOPTI_SC_Q64", "EXISTING", "MEMOPTI")

#: Scales of the serve universe (multipliers on EXPERIMENT_TRIPS, as a
#: ``"scale"`` query field resolves them).
UNIVERSE_SCALES = (0.1, 0.2)

#: Pinned trip counts of never-seen serve cells.  None of them equals a
#: universe trip count, so a miss cell can never be a pre-warmed hit.
MISS_TRIPS = (61, 67, 71, 73, 79, 83, 89, 97, 101, 103)

#: Tiny cells the serve set-up queries to start the server's lazy pool, one
#: per set-up repeat.  Below fir's smallest universe trip count (40).
WARMUP_CELLS = tuple(("fir", "HEAVYWT", trips) for trips in range(33, 40))

#: Paper values of the six ratios behind ``paper_err_pct`` (EXPERIMENTS.md).
PAPER_RATIOS = {
    "fig7_syncopti": 1.31,
    "fig7_existing": 2.1,
    "fig7_memopti": 2.1,
    "fig9_speedup": 1.29,
    "sc_q64_over_heavywt": 1.02,
    "existing_over_sc_q64": 2.0,
}


def label(cell: CampaignCell) -> str:
    """Kernel-free golden key of a cell."""
    point = "SINGLE" if cell.kind == "single" else cell.design_point
    return f"{cell.benchmark}/{point}/{cell.trip_count}"


def make_cell(benchmark: str, point: str, trips: int, kernel: str) -> CampaignCell:
    if point == "SINGLE":
        return CampaignCell(benchmark=benchmark, kind="single", trip_count=trips, kernel=kernel)
    return CampaignCell(benchmark=benchmark, design_point=point, trip_count=trips, kernel=kernel)


def scaled_trips(benchmark: str, scale: float) -> int:
    """Trip count a ``"scale"`` query resolves to (as ``repro serve`` does)."""
    return max(32, int(EXPERIMENT_TRIPS[benchmark] * scale))


def grid_cells(kernel: str, scale: float = 1.0) -> List[CampaignCell]:
    """The 54-cell Figure 7/9/12 grid (at EXPERIMENT_TRIPS when scale is 1)."""
    cells = []
    for bench in BENCHMARK_ORDER:
        trips = scaled_trips(bench, scale)
        for point in GRID_POINTS + ("SINGLE",):
            cells.append(make_cell(bench, point, trips, kernel))
    return cells


def universe_candidates() -> List[Tuple[str, str, float]]:
    """(benchmark, design point, scale) triples the serve universe draws from."""
    return [
        (bench, point, scale)
        for bench in BENCHMARK_ORDER
        for point in GRID_POINTS
        for scale in UNIVERSE_SCALES
    ]


def miss_pool() -> List[Tuple[str, str, int]]:
    """(benchmark, design point, trips) of every never-seen serve cell."""
    return [
        (bench, point, trips)
        for trips in MISS_TRIPS
        for bench in BENCHMARK_ORDER
        for point in GRID_POINTS
    ]


def all_golden_cells() -> List[CampaignCell]:
    """Every cell any workload simulates (on the event kernel)."""
    cells = grid_cells("event")
    for bench, point, scale in universe_candidates():
        trips = scaled_trips(bench, scale)
        cells.append(make_cell(bench, point, trips, "event"))
        cells.append(make_cell(bench, "SINGLE", trips, "event"))
    for bench, point, trips in miss_pool():
        cells.append(make_cell(bench, point, trips, "event"))
    for bench, point, trips in WARMUP_CELLS:
        cells.append(make_cell(bench, point, trips, "event"))
    unique: Dict[str, CampaignCell] = {}
    for cell in cells:
        unique.setdefault(label(cell), cell)
    return list(unique.values())


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["cells"]


class GoldenCheck:
    """Counts results that disagree with the golden table."""

    def __init__(self, golden: Mapping[str, Mapping[str, object]]) -> None:
        self.golden = golden
        self.mismatches: List[str] = []

    def fingerprint(self, key: str, fingerprint: Optional[str]) -> bool:
        ok = key in self.golden and self.golden[key]["fingerprint"] == fingerprint
        if not ok:
            self.mismatches.append(key)
        return ok

    def notes(self) -> List[str]:
        if not self.mismatches:
            return []
        return [f"golden mismatches ({len(self.mismatches)}): {sorted(set(self.mismatches))}"]


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_ratios(cycles: Mapping[str, int], scale: float = 1.0) -> Dict[str, float]:
    """The six grid ratios behind ``paper_err_pct``, from golden-keyed cycles."""

    def norm(point: str) -> float:
        return _geomean(
            cycles[f"{b}/{point}/{scaled_trips(b, scale)}"]
            / cycles[f"{b}/HEAVYWT/{scaled_trips(b, scale)}"]
            for b in BENCHMARK_ORDER
        )

    sc_q64 = norm("SYNCOPTI_SC_Q64")
    return {
        "fig7_syncopti": norm("SYNCOPTI"),
        "fig7_existing": norm("EXISTING"),
        "fig7_memopti": norm("MEMOPTI"),
        "fig9_speedup": norm("SINGLE"),
        "sc_q64_over_heavywt": sc_q64,
        "existing_over_sc_q64": norm("EXISTING") / sc_q64,
    }


def paper_err_pct(ratios: Mapping[str, float]) -> float:
    """Mean absolute relative error of the ratios against the paper, in %."""
    errs = [abs(ratios[k] / PAPER_RATIOS[k] - 1.0) for k in PAPER_RATIOS]
    return 100.0 * sum(errs) / len(errs)
