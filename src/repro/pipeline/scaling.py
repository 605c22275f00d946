"""The N-core scalability study: ``pipeline_scaling``.

Sweeps pipeline stage count K over each communication design point and
kernel, on a K-core machine (:func:`repro.core.design_points.with_n_cores`).
For every cell it reports:

* **speedup** — single-threaded cycles / pipelined cycles (the Figure 9
  convention, extended along the K axis);
* **per-hop COMM-OP delay** — the paper's Section 3 quantity, folded from
  ``comm.produce`` / ``comm.consume`` trace events and grouped by the hop
  (adjacent-stage queue) each op targeted
  (:func:`repro.trace.profiler.measure_hop_delays`);
* **bus utilization** — the shared L3 bus's busy fraction over the run,
  from the bus model's own occupancy counter.

Expected shape (the paper's Section 6 extrapolation): SYNCOPTI and HEAVYWT
keep scaling as stages are added, because their per-hop synchronization is
a single instruction against a local counter (or a dedicated-store port);
EXISTING saturates — every added hop costs two ~10-instruction software
sequences plus flag-line ping-pong on the one shared bus, so the growing
COMM-OP bill and bus contention absorb the exposed parallelism.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.harness.campaign import CampaignCell, run_cells
from repro.harness.runner import RunOutcome
from repro.sim.stats import geomean

#: Kernels with enough recurrences (SCCs) to fill eight pipeline stages.
PIPELINE_BENCHMARKS: Tuple[str, ...] = ("wc", "adpcmdec", "equake", "fft2")

#: The stage counts the study sweeps.
STAGE_COUNTS: Tuple[int, ...] = (2, 3, 4, 6, 8)

#: The Section 4 design points, in scaling order.
SCALING_POINTS: Tuple[str, ...] = ("EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT")


def pipeline_scaling(
    scale: float = 1.0,
    benchmarks: Iterable[str] = PIPELINE_BENCHMARKS,
    stage_counts: Iterable[int] = STAGE_COUNTS,
    design_points: Iterable[str] = SCALING_POINTS,
    jobs: int = 1,
):
    """Run the stage-count sweep and render the scalability tables.

    Args:
        scale: Multiplier on the per-benchmark experiment trip counts
            (reduced-scale smokes pass e.g. ``0.1``).
        benchmarks: Kernel subset to sweep (non-nested suite members).
        stage_counts: Pipeline depths to build; each runs on that many cores.
        design_points: Design-point names to compare.
        jobs: ``1`` (default) runs every cell serially in-process; ``> 1``
            dispatches the grid through the campaign runner's worker pool.
            Either way each cell runs the same executor, so the study's
            numbers are identical.

    Returns an :class:`~repro.harness.experiments.ExperimentResult` whose
    ``data`` carries ``speedup`` / ``geomean_speedup`` / ``comm_op_delay`` /
    ``hop_delays`` / ``bus_utilization`` grids keyed by design point.
    """
    # Imported lazily: the harness's experiment registry imports this module,
    # so a top-level import of repro.harness.experiments would cycle.
    from repro.harness.experiments import ExperimentResult, experiment_trips
    from repro.harness.reporting import format_table

    benchmarks = tuple(benchmarks)
    stage_counts = tuple(stage_counts)
    design_points = tuple(design_points)

    failures: List[RunOutcome] = []
    speedup: Dict[str, Dict[str, Dict[int, Optional[float]]]] = {
        p: {b: {} for b in benchmarks} for p in design_points
    }
    hop_delays: Dict[str, Dict[str, Dict[int, Dict[int, float]]]] = {
        p: {b: {} for b in benchmarks} for p in design_points
    }
    bus_util: Dict[str, Dict[str, Dict[int, Optional[float]]]] = {
        p: {b: {} for b in benchmarks} for p in design_points
    }

    trips: Dict[str, int] = {b: experiment_trips(b, scale) for b in benchmarks}
    single_cells = {
        bench: CampaignCell(benchmark=bench, kind="single", trip_count=trips[bench])
        for bench in benchmarks
    }
    pipe_cells: Dict[Tuple[str, int, str], CampaignCell] = {
        (bench, k, point): CampaignCell(
            benchmark=bench,
            design_point=point,
            kind="pipeline",
            stages=k,
            trip_count=trips[bench],
        )
        for bench in benchmarks
        for k in stage_counts
        for point in design_points
    }
    outcomes = run_cells(
        list(single_cells.values()) + list(pipe_cells.values()), jobs=jobs
    )

    single_cycles: Dict[str, Optional[int]] = {}
    for bench in benchmarks:
        st = outcomes[single_cells[bench].key()]
        if st.ok:
            single_cycles[bench] = st.cycles
        else:
            single_cycles[bench] = None
            failures.append(st)

    for (bench, k, point), cell in pipe_cells.items():
        outcome = outcomes[cell.key()]
        if not outcome.ok:
            failures.append(outcome)
            speedup[point][bench][k] = None
            bus_util[point][bench][k] = None
            continue
        base = single_cycles[bench]
        speedup[point][bench][k] = (
            base / outcome.cycles if base is not None else None
        )
        hop_delays[point][bench][k] = outcome.extras["hop_delays"]
        bus_util[point][bench][k] = outcome.extras["bus_utilization"]

    def grid_geomean(
        grid: Dict[str, Dict[int, Optional[float]]], k: int
    ) -> Optional[float]:
        values = [
            grid[b][k] for b in benchmarks if grid[b].get(k) is not None
        ]
        return geomean(values) if values else None

    def grid_mean(
        grid: Dict[str, Dict[int, Optional[float]]], k: int
    ) -> Optional[float]:
        values = [
            grid[b][k] for b in benchmarks if grid[b].get(k) is not None
        ]
        return sum(values) / len(values) if values else None

    geomean_speedup = {
        p: {k: grid_geomean(speedup[p], k) for k in stage_counts}
        for p in design_points
    }
    mean_bus_util = {
        p: {k: grid_mean(bus_util[p], k) for k in stage_counts}
        for p in design_points
    }
    comm_op_delay: Dict[str, Dict[int, Optional[float]]] = {}
    for point in design_points:
        comm_op_delay[point] = {}
        for k in stage_counts:
            per_op = [
                delay
                for bench in benchmarks
                for delay in hop_delays[point][bench].get(k, {}).values()
            ]
            comm_op_delay[point][k] = (
                sum(per_op) / len(per_op) if per_op else None
            )

    def fmt(value: Optional[float], pattern: str = "{:.2f}") -> str:
        return "--" if value is None else pattern.format(value)

    headers = ("Benchmark", *(f"K={k}" for k in stage_counts))
    sections = []
    for point in design_points:
        rows = [
            (b, *(fmt(speedup[point][b].get(k)) for k in stage_counts))
            for b in benchmarks
        ]
        rows.append(
            ("GeoMean", *(fmt(geomean_speedup[point][k]) for k in stage_counts))
        )
        sections.append(
            f"-- {point}: speedup over single-threaded --\n"
            + format_table(headers, rows)
        )
    summary_rows = []
    for point in design_points:
        for k in stage_counts:
            summary_rows.append(
                (
                    point,
                    k,
                    fmt(geomean_speedup[point][k]),
                    fmt(comm_op_delay[point][k]),
                    fmt(mean_bus_util[point][k], "{:.1%}"),
                )
            )
    sections.append(
        "-- Summary: geomean speedup, mean per-hop COMM-OP delay, "
        "bus utilization --\n"
        + format_table(
            ("Design point", "K", "Speedup", "COMM-OP delay", "Bus util"),
            summary_rows,
        )
    )
    text = (
        "== Pipeline scaling: K-stage DSWP on K cores ==\n" + "\n\n".join(sections)
    )
    if failures:
        lines = [f"\n\n{len(failures)} cell(s) failed (rendered as --):"]
        for f in failures:
            lines.append(f"  {f.benchmark}/{f.design_point}: {f.error_type}: {f.error}")
        text += "\n".join(lines)
    return ExperimentResult(
        exhibit="pipeline_scaling",
        description="Speedup and communication overheads vs pipeline stage count",
        data={
            "speedup": speedup,
            "geomean_speedup": geomean_speedup,
            "comm_op_delay": comm_op_delay,
            "hop_delays": hop_delays,
            "bus_utilization": bus_util,
            "mean_bus_utilization": mean_bus_util,
            "stage_counts": stage_counts,
            "benchmarks": benchmarks,
            "design_points": design_points,
            "failures": failures,
        },
        text=text,
        failures=failures,
    )
