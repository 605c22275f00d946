"""One entry per table and figure of the paper's evaluation.

Every function regenerates one exhibit — same rows, same series, same
normalization conventions — returning an :class:`ExperimentResult` whose
``data`` holds the numbers (for tests/benches to assert on) and whose
``text`` is a printable rendering.  Absolute cycle counts differ from the
paper's Itanium 2 testbed; the *shapes* (orderings, approximate factors,
crossovers) are the reproduction targets recorded in EXPERIMENTS.md.

Resilience: every (benchmark x design point) cell runs through
:func:`~repro.harness.campaign.execute_cell`, so one deadlocking or
runaway cell cannot abort an exhibit.  Failed cells render as the
:data:`GAP` marker in tables, are excluded from geomeans, and surface as
structured :class:`~repro.harness.runner.FailedRun` records (post-mortem
attached) under ``result.failures`` / ``data["failures"]``.

Parallelism: every figure function (and :func:`run_all`) takes ``jobs``;
``jobs > 1`` dispatches its grid through the campaign runner's worker pool
(:mod:`repro.harness.campaign`) instead of the serial in-process loop.  Both
paths run the same per-cell executor, so a pooled figure's cycle counts and
fingerprints are bit-identical to the serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.design_points import FIGURE7_ORDER, FIGURE12_ORDER
from repro.harness.campaign import CampaignCell, run_cells
from repro.harness.reporting import (
    format_breakdown_table,
    format_table,
    normalized_series,
    with_geomean,
)
from repro.harness.runner import FailedRun, RunOutcome
from repro.sim.config import baseline_config
from repro.sim.stats import geomean
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS

#: Per-benchmark iteration counts for experiment runs: long-iteration
#: (memory-bound) loops need fewer trips for steady state.
EXPERIMENT_TRIPS: Dict[str, int] = {
    "art": 400,
    "equake": 200,
    "mcf": 150,
    "bzip2": 480,
    "adpcmdec": 400,
    "epicdec": 200,
    "wc": 500,
    "fir": 400,
    "fft2": 200,
}

#: Rendered in place of a failed cell's value: an explicit gap, not a zero.
GAP = "--"


@dataclass
class ExperimentResult:
    """One regenerated exhibit."""

    exhibit: str
    description: str
    data: Dict
    text: str
    #: Structured records for every cell that failed (post-mortem attached):
    #: :class:`FailedRun` diagnoses and, under a campaign watchdog,
    #: :class:`~repro.harness.runner.TimedOutRun` kills.
    failures: List[RunOutcome] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def experiment_trips(benchmark: str, scale: float = 1.0) -> int:
    """The benchmark's experiment trip count at ``scale``, at least 32: the
    one rule of every scaled grid, CLI campaign and serve query."""
    return max(32, int(EXPERIMENT_TRIPS[benchmark] * scale))


# ----------------------------------------------------------------------
# Resilient-grid plumbing
# ----------------------------------------------------------------------


def sweep(
    benchmarks: Iterable[str],
    design_points: Iterable[str],
    trip_count: Optional[int] = None,
    scale: float = 1.0,
    overrides: Optional[Dict[str, int]] = None,
    fault_plan_for=None,
    jobs: int = 1,
) -> Dict[str, Dict[str, RunOutcome]]:
    """Run a (benchmark x design point) grid, isolating per-cell failures.

    Args:
        benchmarks: Benchmark names to sweep.
        design_points: Design-point names to sweep.
        trip_count: Fixed iteration count (None = per-benchmark default
            scaled by ``scale``).
        scale: Multiplier on the per-benchmark defaults when ``trip_count``
            is None.
        overrides: Declarative ``{knob: value}`` config deltas (see
            :data:`repro.core.design_points.OVERRIDE_KNOBS`) applied to
            every cell; works with any ``jobs``.
        fault_plan_for: Optional ``(benchmark, point) -> Optional[FaultPlan]``
            hook attaching a seeded fault plan per cell; plans are plain
            data, so this works with any ``jobs``.
        jobs: ``1`` runs the serial in-process loop (the default fallback);
            ``> 1`` dispatches the grid through the campaign runner's
            worker pool.

    Returns a nested dict ``grid[benchmark][point]`` of
    :class:`~repro.harness.runner.RunOutcome`: failing cells become
    :class:`FailedRun` records and the rest of the grid still completes.
    """
    layout: List[tuple] = []
    cells: List[CampaignCell] = []
    for bench in benchmarks:
        trips = trip_count if trip_count is not None else experiment_trips(bench, scale)
        for name in design_points:
            cell = CampaignCell(
                benchmark=bench,
                design_point=name,
                trip_count=trips,
                overrides=dict(overrides or {}),
                fault_plan=(
                    fault_plan_for(bench, name) if fault_plan_for is not None else None
                ),
            )
            layout.append((bench, name, cell.key()))
            cells.append(cell)
    outcomes = run_cells(cells, jobs=jobs)
    grid: Dict[str, Dict[str, RunOutcome]] = {}
    for bench, name, key in layout:
        grid.setdefault(bench, {})[name] = outcomes[key]
    return grid


def _grid_failures(grid: Mapping[str, Mapping[str, RunOutcome]]) -> List[RunOutcome]:
    return [
        cell for runs in grid.values() for cell in runs.values() if not cell.ok
    ]


def _fmt(value: Optional[float]) -> str:
    return GAP if value is None else f"{value:.2f}"


def _partial_geomean(values: Iterable[Optional[float]]) -> Optional[float]:
    """Geomean over the non-gap values; None when every cell is a gap."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return geomean(present)


def _failure_footer(failures: List[FailedRun]) -> str:
    if not failures:
        return ""
    lines = [f"\n\n{len(failures)} cell(s) failed (rendered as {GAP}):"]
    for f in failures:
        lines.append(f"  {f.benchmark}/{f.design_point}: {f.error_type}: {f.error}")
    return "\n".join(lines)


def _design_point_grid(
    points,
    scale: float,
    overrides: Optional[Dict[str, int]] = None,
    jobs: int = 1,
) -> Dict[str, Dict[str, RunOutcome]]:
    return sweep(BENCHMARK_ORDER, points, scale=scale, overrides=overrides, jobs=jobs)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def table1() -> ExperimentResult:
    """Table 1: benchmark loop information."""
    rows = [
        (info.name, info.function, info.source, info.pct_exec_time)
        for info in BENCHMARKS.values()
    ]
    text = "== Table 1: Benchmark Loop Information ==\n" + format_table(
        ("Benchmark", "Function", "Source", "% Exec. Time"), rows
    )
    return ExperimentResult(
        exhibit="table1",
        description="Benchmark loop information",
        data={"rows": rows},
        text=text,
    )


def table2() -> ExperimentResult:
    """Table 2: baseline simulator configuration."""
    desc = baseline_config().describe()
    text = "== Table 2: Baseline Simulator ==\n" + format_table(
        ("Parameter", "Value"), desc.items()
    )
    return ExperimentResult(
        exhibit="table2",
        description="Baseline simulator configuration",
        data={"parameters": desc},
        text=text,
    )


# ----------------------------------------------------------------------
# Figure 6: transit-delay tolerance of HEAVYWT
# ----------------------------------------------------------------------


def figure6(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 6: HEAVYWT at 1- vs 10-cycle transit, 32- vs 64-entry queues.

    Paper shape: the 1-cycle and 10-cycle bars are nearly equal for all
    benchmarks except bzip2 (whose outer loop cannot be pipelined, ~33%
    slower at 10 cycles); some benchmarks improve slightly at 10 cycles
    (pipelined transit acts as extra queue storage); the 64-entry queue
    recovers the residual slowdowns.
    """
    variants: Dict[str, Dict[str, int]] = {
        "1c/32q": {"transit_delay": 1, "queue_depth": 32},
        "10c/32q": {"transit_delay": 10, "queue_depth": 32},
        "10c/64q": {"transit_delay": 10, "queue_depth": 64},
    }
    labels = tuple(variants)
    layout: List[tuple] = []
    cells: List[CampaignCell] = []
    for bench in BENCHMARK_ORDER:
        for label, ov in variants.items():
            cell = CampaignCell(
                benchmark=bench,
                design_point="HEAVYWT",
                trip_count=experiment_trips(bench, scale),
                overrides=dict(ov),
            )
            layout.append((bench, label, cell.key()))
            cells.append(cell)
    outcomes = run_cells(cells, jobs=jobs)
    series: Dict[str, Dict[str, Optional[float]]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        cycles: Dict[str, float] = {}
        for b, label, key in layout:
            if b != bench:
                continue
            outcome = outcomes[key]
            if outcome.ok:
                cycles[label] = outcome.cycles
            else:
                failures.append(outcome)
        if "1c/32q" in cycles:
            normalized = normalized_series(cycles, "1c/32q")
        else:
            normalized = {}
        series[bench] = {label: normalized.get(label) for label in labels}
    rows = [(b, *(_fmt(v[label]) for label in labels)) for b, v in series.items()]
    gms = {
        label: _partial_geomean(v[label] for v in series.values()) for label in labels
    }
    rows.append(("GeoMean", *(_fmt(gms[k]) for k in labels)))
    text = (
        "== Figure 6: Effect of transit delay on streaming codes ==\n"
        + format_table(("Benchmark", "1-cycle/32", "10-cycle/32", "10-cycle/64"), rows)
        + _failure_footer(failures)
    )
    return ExperimentResult(
        exhibit="figure6",
        description="Transit-delay tolerance of pipelined streaming (HEAVYWT)",
        data={"normalized": series, "geomean": gms, "failures": failures},
        text=text,
        failures=failures,
    )


# ----------------------------------------------------------------------
# Figures 7 / 10 / 11: design-point comparison with breakdowns
# ----------------------------------------------------------------------


def _breakdown_figure(
    exhibit: str,
    title: str,
    points,
    scale: float,
    overrides: Optional[Dict[str, int]] = None,
    thread: str = "producer",
    baseline_point: Optional[str] = None,
    jobs: int = 1,
) -> ExperimentResult:
    grid = _design_point_grid(points, scale, overrides=overrides, jobs=jobs)
    baseline_point = baseline_point or points[0]
    failures = _grid_failures(grid)
    normalized: Dict[str, Dict[str, Optional[float]]] = {}
    bars: Dict[str, Mapping[str, float]] = {}
    for bench, runs in grid.items():
        baseline = runs[baseline_point]
        if not baseline.ok:
            # No baseline, no normalization: the whole row is a gap.
            normalized[bench] = {name: None for name in points}
            continue
        base = baseline.cycles
        normalized[bench] = {}
        for name in points:
            cell = runs[name]
            if not cell.ok:
                normalized[bench][name] = None
                continue
            normalized[bench][name] = cell.cycles / base
            stats = cell.producer if thread == "producer" else cell.consumer
            bars[f"{bench}/{name}"] = stats.normalized_components(base)
    gms = {
        name: _partial_geomean(normalized[b][name] for b in normalized)
        for name in points
    }
    text = format_breakdown_table(title, bars) + "\n\nNormalized execution time:\n"
    rows = [(b, *(_fmt(normalized[b][n]) for n in points)) for b in normalized]
    rows.append(("GeoMean", *(_fmt(gms[n]) for n in points)))
    text += format_table(("Benchmark", *points), rows)
    text += _failure_footer(failures)
    return ExperimentResult(
        exhibit=exhibit,
        description=title,
        data={
            "normalized": normalized,
            "geomean": gms,
            "bars": dict(bars),
            "failures": failures,
        },
        text=text,
        failures=failures,
    )


def figure7(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 7: normalized execution times for each design point.

    Paper shape: HEAVYWT best everywhere; SYNCOPTI trails it closely
    (average ~31% behind, worst for wc's very tight loop) and beats
    EXISTING/MEMOPTI by ~1.6x; MEMOPTI is not faster than EXISTING (OzQ
    write-forward recirculation vs prioritized external writebacks).
    """
    return _breakdown_figure(
        "figure7",
        "Figure 7: Normalized execution times for each design point (producer)",
        list(FIGURE7_ORDER),
        scale,
        jobs=jobs,
    )


def figure10(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 10: 4-CPU-cycle bus latency sensitivity.

    Paper shape: tight loops (adpcmdec, wc, epicdec) hurt most; even larger
    memory-intensive loops (mcf, equake) grow a significant BUS component
    from arbitration backlog (8 bus cycles = 32 CPU cycles per line).
    """
    return _breakdown_figure(
        "figure10",
        "Figure 10: Effect of increased transit delay (bus latency = 4 CPU cycles)",
        list(FIGURE7_ORDER),
        scale,
        overrides={"bus_latency": 4, "transit_delay": 4},
        jobs=jobs,
    )


def figure11(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 11: 128-byte-wide bus at 4-cycle latency.

    Paper shape: the wide bus (one beat per line) removes the arbitration
    backlog, shrinking the BUS components relative to Figure 10.
    """
    return _breakdown_figure(
        "figure11",
        "Figure 11: Effect of increased interconnect bandwidth "
        "(transit = 4 cycles, bus width = 128 bytes)",
        list(FIGURE7_ORDER),
        scale,
        overrides={"bus_latency": 4, "bus_width": 128, "transit_delay": 4},
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# Figure 8: communication frequency
# ----------------------------------------------------------------------


def figure8(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 8: dynamic comm-to-application instruction ratios.

    Paper shape: with produce/consume instructions, one communication per
    5-20 application instructions; wc is the extreme (3 consumes per
    iteration of a very tight loop).
    """
    cells = {
        bench: CampaignCell(
            benchmark=bench,
            design_point="HEAVYWT",
            trip_count=experiment_trips(bench, scale),
        )
        for bench in BENCHMARK_ORDER
    }
    outcomes = run_cells(cells.values(), jobs=jobs)
    ratios: Dict[str, Dict[str, Optional[float]]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        outcome = outcomes[cells[bench].key()]
        if not outcome.ok:
            failures.append(outcome)
            ratios[bench] = {"producer": None, "consumer": None}
            continue
        ratios[bench] = {
            "producer": outcome.producer.comm_to_app_ratio,
            "consumer": outcome.consumer.comm_to_app_ratio,
        }
    gms = {
        side: _partial_geomean(
            max(r[side], 1e-9) if r[side] is not None else None
            for r in ratios.values()
        )
        for side in ("producer", "consumer")
    }
    rows = [
        (b, *(GAP if r[s] is None else f"{r[s]:.3f}" for s in ("producer", "consumer")))
        for b, r in ratios.items()
    ]
    rows.append(
        (
            "GeoMean",
            *(
                GAP if gms[s] is None else f"{gms[s]:.3f}"
                for s in ("producer", "consumer")
            ),
        )
    )
    text = (
        "== Figure 8: comm : application instruction ratio ==\n"
        + format_table(("Benchmark", "Producer", "Consumer"), rows)
        + _failure_footer(failures)
    )
    return ExperimentResult(
        exhibit="figure8",
        description="Dynamic communication to application instruction ratios",
        data={"ratios": ratios, "geomean": gms, "failures": failures},
        text=text,
        failures=failures,
    )


# ----------------------------------------------------------------------
# Figure 9: HEAVYWT speedup over single-threaded
# ----------------------------------------------------------------------


def figure9(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 9: loop speedup of HEAVYWT over single-threaded execution.

    Paper shape: all benchmarks at or above 1.0, geomean ~1.29x — meaning
    the other mechanisms' COMM-OP overheads can erase parallelization gains.
    """
    mt_cells: Dict[str, CampaignCell] = {}
    st_cells: Dict[str, CampaignCell] = {}
    for bench in BENCHMARK_ORDER:
        trips = experiment_trips(bench, scale)
        mt_cells[bench] = CampaignCell(
            benchmark=bench, design_point="HEAVYWT", trip_count=trips
        )
        st_cells[bench] = CampaignCell(benchmark=bench, kind="single", trip_count=trips)
    outcomes = run_cells(
        list(mt_cells.values()) + list(st_cells.values()), jobs=jobs
    )
    speedups: Dict[str, Optional[float]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        mt = outcomes[mt_cells[bench].key()]
        st = outcomes[st_cells[bench].key()]
        if not mt.ok:
            failures.append(mt)
        if not st.ok:
            failures.append(st)
        if not (mt.ok and st.ok):
            speedups[bench] = None
            continue
        speedups[bench] = st.cycles / mt.cycles
    present = {b: s for b, s in speedups.items() if s is not None}
    series: Dict[str, Optional[float]] = dict(speedups)
    series["GeoMean"] = (
        with_geomean(present)["GeoMean"] if present else None
    )
    rows = [(b, _fmt(s)) for b, s in series.items()]
    text = (
        "== Figure 9: HEAVYWT loop speedup over single-threaded ==\n"
        + format_table(("Benchmark", "Speedup"), rows)
        + _failure_footer(failures)
    )
    return ExperimentResult(
        exhibit="figure9",
        description="Speedup of optimized loops in HEAVYWT over single-threaded",
        data={"speedups": speedups, "geomean": series["GeoMean"], "failures": failures},
        text=text,
        failures=failures,
    )


# ----------------------------------------------------------------------
# Figure 12: SYNCOPTI optimizations (Q64, SC, SC+Q64)
# ----------------------------------------------------------------------


def figure12(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 12: stream cache and queue size effects on SYNCOPTI.

    Paper shape: Q64 reduces producer stalls, SC cuts consume-to-use
    latency, and SC+Q64 reaches within ~2% of HEAVYWT — a 2x speedup over
    EXISTING/MEMOPTI — at ~1% of the dedicated store's cost.
    """
    points = list(FIGURE12_ORDER)
    grid = _design_point_grid(points, scale, jobs=jobs)
    failures = _grid_failures(grid)
    normalized: Dict[str, Dict[str, Optional[float]]] = {}
    producer_bars: Dict[str, Mapping[str, float]] = {}
    consumer_bars: Dict[str, Mapping[str, float]] = {}
    for bench, runs in grid.items():
        baseline = runs["HEAVYWT"]
        if not baseline.ok:
            normalized[bench] = {name: None for name in points}
            continue
        base = baseline.cycles
        normalized[bench] = {}
        for name in points:
            cell = runs[name]
            if not cell.ok:
                normalized[bench][name] = None
                continue
            normalized[bench][name] = cell.cycles / base
            producer_bars[f"{bench}/{name}"] = cell.producer.normalized_components(base)
            consumer_bars[f"{bench}/{name}"] = cell.consumer.normalized_components(base)
    gms = {
        name: _partial_geomean(normalized[b][name] for b in normalized)
        for name in points
    }
    text = (
        format_breakdown_table(
            "Figure 12 (producer): stream cache and queue size effects", producer_bars
        )
        + "\n\n"
        + format_breakdown_table(
            "Figure 12 (consumer): stream cache and queue size effects", consumer_bars
        )
        + "\n\nNormalized execution time:\n"
    )
    rows = [(b, *(_fmt(normalized[b][n]) for n in points)) for b in normalized]
    rows.append(("GeoMean", *(_fmt(gms[n]) for n in points)))
    text += format_table(("Benchmark", *points), rows)
    text += _failure_footer(failures)
    return ExperimentResult(
        exhibit="figure12",
        description="Effect of streaming cache and queue size on SYNCOPTI",
        data={
            "normalized": normalized,
            "geomean": gms,
            "producer_bars": dict(producer_bars),
            "consumer_bars": dict(consumer_bars),
            "failures": failures,
        },
        text=text,
        failures=failures,
    )


def pipeline_scaling(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Scalability study: K-stage DSWP pipelines on K-core machines.

    Sweeps stage count over the four design points and reports speedup,
    per-hop COMM-OP delay, and bus utilization.  Expected shape: SYNCOPTI
    and HEAVYWT keep scaling with stage count; EXISTING saturates as its
    software-queue synchronization and shared-bus contention grow with K.
    """
    # Imported lazily: repro.pipeline.scaling needs this module's
    # ExperimentResult, so a top-level import here would cycle.
    from repro.pipeline.scaling import pipeline_scaling as _pipeline_scaling

    return _pipeline_scaling(scale, jobs=jobs)


#: All exhibits, in paper order (the scalability study extends the paper).
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "pipeline_scaling": pipeline_scaling,
}


def run_all(scale: float = 1.0, jobs: int = 1) -> List[ExperimentResult]:
    """Regenerate every exhibit (tables take no scale).

    ``jobs > 1`` runs each exhibit's grid on the campaign runner's worker
    pool; ``jobs=1`` keeps the serial in-process default.
    """
    results = []
    for name, fn in ALL_EXPERIMENTS.items():
        if name.startswith("table"):
            results.append(fn())
        else:
            results.append(fn(scale, jobs=jobs))
    return results
