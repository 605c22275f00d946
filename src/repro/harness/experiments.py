"""One entry per table and figure of the paper's evaluation.

Every exhibit is one :class:`Exhibit`: the campaign cells it simulates and
the reducer that renders their outcomes — same rows, same series, same
normalization conventions — into an :class:`ExperimentResult` whose
``data`` holds the numbers (for tests/benches to assert on) and whose
``text`` is a printable rendering.  Absolute cycle counts differ from the
paper's Itanium 2 testbed; the *shapes* (orderings, approximate factors,
crossovers) are the reproduction targets recorded in EXPERIMENTS.md.

:func:`run_exhibits` runs the distinct cells of the named exhibits in one
:func:`~repro.harness.campaign.run_cells` call and renders each exhibit
from the outcomes, read by cell key: a cell two exhibits share simulates
once.  The exhibit functions (:func:`figure7` ...), :func:`run_all`,
``python -m repro run`` and ``python -m repro campaign run --grid`` all
use these definitions.

Resilience: every cell runs through
:func:`~repro.harness.campaign.execute_cell`, so one deadlocking or
runaway cell cannot abort an exhibit.  Failed cells render as the
:data:`GAP` marker in tables, are excluded from geomeans, and surface as
structured :class:`~repro.harness.runner.FailedRun` records (post-mortem
attached) under ``result.failures`` / ``data["failures"]``.

Parallelism: every figure function (and :func:`run_all`) takes ``jobs``;
``jobs > 1`` dispatches the cells through the campaign runner's worker pool
(:mod:`repro.harness.campaign`), one pool for every exhibit of the call,
instead of the serial in-process loop.  Both paths run the same per-cell
executor, so a pooled figure's cycle counts and fingerprints are
bit-identical to the serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

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
# Exhibits: a labelled cell grid plus a reducer
# ----------------------------------------------------------------------

#: An exhibit's cells, each under the label its reducer reads it by.
Grid = Dict[Hashable, CampaignCell]


@dataclass(frozen=True)
class Exhibit:
    """One table or figure: the cells it simulates and its reducer.

    ``grid(scale)`` labels every cell the exhibit simulates (a table
    simulates none); ``reduce(runs)`` renders the exhibit from those cells'
    outcomes, ``{label: outcome}``.
    """

    grid: Callable[[float], Grid]
    reduce: Callable[[Dict[Hashable, RunOutcome]], ExperimentResult]

    def cells(self, scale: float) -> List[CampaignCell]:
        """The campaign cells the exhibit simulates at ``scale``."""
        return list(self.grid(scale).values())

    def render(self, scale: float, outcomes: Mapping[str, RunOutcome]) -> ExperimentResult:
        """The exhibit from any ``{cell key: outcome}`` map holding its cells."""
        return self.reduce(
            {label: outcomes[cell.key()] for label, cell in self.grid(scale).items()}
        )


def run_exhibits(
    names: Iterable[str], scale: float = 1.0, jobs: int = 1
) -> List[ExperimentResult]:
    """Render the named exhibits from one run of their distinct cells.

    A cell two exhibits share (Figure 8's HEAVYWT runs are Figure 7's)
    simulates once; ``jobs > 1`` serves every exhibit from one worker pool.
    """
    return _run([EXHIBITS[name] for name in names], scale, jobs)


def _run(exhibits: Sequence[Exhibit], scale: float, jobs: int) -> List[ExperimentResult]:
    distinct = {cell.key(): cell for exhibit in exhibits for cell in exhibit.cells(scale)}
    outcomes = run_cells(distinct.values(), jobs=jobs)
    return [exhibit.render(scale, outcomes) for exhibit in exhibits]


def _cell(bench: str, scale: float, **fields) -> CampaignCell:
    return CampaignCell(benchmark=bench, trip_count=experiment_trips(bench, scale), **fields)


def _points_grid(
    benchmarks: Iterable[str],
    points: Iterable[str],
    scale: float,
    trip_count: Optional[int] = None,
    overrides: Optional[Dict[str, int]] = None,
    fault_plan_for=None,
) -> Grid:
    """``(benchmark, point) -> cell`` over every benchmark and design point."""
    # Lists: ``points`` is read once per benchmark, so a one-shot iterator
    # would give every benchmark after the first no cells.
    benchmarks, points = list(benchmarks), list(points)
    return {
        (bench, point): CampaignCell(
            benchmark=bench,
            design_point=point,
            trip_count=trip_count if trip_count is not None else experiment_trips(bench, scale),
            overrides=dict(overrides or {}),
            fault_plan=fault_plan_for(bench, point) if fault_plan_for is not None else None,
        )
        for bench in benchmarks
        for point in points
    }


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
    grid = _points_grid(
        benchmarks, design_points, scale, trip_count, overrides, fault_plan_for
    )
    outcomes = run_cells(grid.values(), jobs=jobs)
    result: Dict[str, Dict[str, RunOutcome]] = {}
    for (bench, name), cell in grid.items():
        result.setdefault(bench, {})[name] = outcomes[cell.key()]
    return result


def _fmt(value: Optional[float], spec: str = ".2f") -> str:
    return GAP if value is None else format(value, spec)


def _partial_geomean(values: Iterable[Optional[float]]) -> Optional[float]:
    """Geomean over the non-gap values; None when every cell is a gap."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return geomean(present)


def _partial_mean(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean over the non-gap values; None when every cell is a gap."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _failure_footer(failures: List[FailedRun]) -> str:
    if not failures:
        return ""
    lines = [f"\n\n{len(failures)} cell(s) failed (rendered as {GAP}):"]
    for f in failures:
        lines.append(f"  {f.benchmark}/{f.design_point}: {f.error_type}: {f.error}")
    return "\n".join(lines)


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

#: Figure 6's HEAVYWT variants, normalized to the first.
_FIGURE6_VARIANTS: Dict[str, Dict[str, int]] = {
    "1c/32q": {"transit_delay": 1, "queue_depth": 32},
    "10c/32q": {"transit_delay": 10, "queue_depth": 32},
    "10c/64q": {"transit_delay": 10, "queue_depth": 64},
}


def _figure6_grid(scale: float) -> Grid:
    return {
        (bench, label): _cell(bench, scale, design_point="HEAVYWT", overrides=dict(ov))
        for bench in BENCHMARK_ORDER
        for label, ov in _FIGURE6_VARIANTS.items()
    }


def _figure6(runs) -> ExperimentResult:
    labels = tuple(_FIGURE6_VARIANTS)
    series: Dict[str, Dict[str, Optional[float]]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        cycles: Dict[str, float] = {}
        for label in labels:
            outcome = runs[bench, label]
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


def figure6(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 6: HEAVYWT at 1- vs 10-cycle transit, 32- vs 64-entry queues.

    Paper shape: the 1-cycle and 10-cycle bars are nearly equal for all
    benchmarks except bzip2 (whose outer loop cannot be pipelined, ~33%
    slower at 10 cycles); some benchmarks improve slightly at 10 cycles
    (pipelined transit acts as extra queue storage); the 64-entry queue
    recovers the residual slowdowns.
    """
    return run_exhibits(["figure6"], scale, jobs)[0]


# ----------------------------------------------------------------------
# Figures 7 / 10 / 11 / 12: design-point comparison with breakdowns
# ----------------------------------------------------------------------


def _breakdown_figure(
    exhibit: str,
    description: str,
    points: Sequence[str],
    overrides: Optional[Dict[str, int]] = None,
    bars: Optional[Dict[str, Tuple[str, str]]] = None,
) -> Exhibit:
    """Every benchmark on ``points``, normalized to ``points[0]``.

    ``bars`` maps each ``data`` key of stall breakdowns to the thread it
    breaks down and its table's title (default: ``data["bars"]``, the
    producer's, titled ``description``).
    """
    bars = bars or {"bars": ("producer", description)}

    def reduce(runs) -> ExperimentResult:
        failures = [outcome for outcome in runs.values() if not outcome.ok]
        normalized: Dict[str, Dict[str, Optional[float]]] = {}
        tables: Dict[str, Dict[str, Mapping[str, float]]] = {key: {} for key in bars}
        for bench in BENCHMARK_ORDER:
            baseline = runs[bench, points[0]]
            if not baseline.ok:
                # No baseline, no normalization: the whole row is a gap.
                normalized[bench] = {name: None for name in points}
                continue
            base = baseline.cycles
            normalized[bench] = {}
            for name in points:
                cell = runs[bench, name]
                if not cell.ok:
                    normalized[bench][name] = None
                    continue
                normalized[bench][name] = cell.cycles / base
                for key, (thread, _title) in bars.items():
                    stats = getattr(cell, thread)
                    tables[key][f"{bench}/{name}"] = stats.normalized_components(base)
        gms = {
            name: _partial_geomean(normalized[b][name] for b in normalized)
            for name in points
        }
        text = "\n\n".join(
            format_breakdown_table(title, tables[key]) for key, (_thread, title) in bars.items()
        )
        text += "\n\nNormalized execution time:\n"
        rows = [(b, *(_fmt(normalized[b][n]) for n in points)) for b in normalized]
        rows.append(("GeoMean", *(_fmt(gms[n]) for n in points)))
        text += format_table(("Benchmark", *points), rows)
        text += _failure_footer(failures)
        return ExperimentResult(
            exhibit=exhibit,
            description=description,
            data={"normalized": normalized, "geomean": gms, **tables, "failures": failures},
            text=text,
            failures=failures,
        )

    return Exhibit(
        lambda scale: _points_grid(BENCHMARK_ORDER, points, scale, overrides=overrides),
        reduce,
    )


def figure7(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 7: normalized execution times for each design point.

    Paper shape: HEAVYWT best everywhere; SYNCOPTI trails it closely
    (average ~31% behind, worst for wc's very tight loop) and beats
    EXISTING/MEMOPTI by ~1.6x; MEMOPTI is not faster than EXISTING (OzQ
    write-forward recirculation vs prioritized external writebacks).
    """
    return run_exhibits(["figure7"], scale, jobs)[0]


def figure10(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 10: 4-CPU-cycle bus latency sensitivity.

    Paper shape: tight loops (adpcmdec, wc, epicdec) hurt most; even larger
    memory-intensive loops (mcf, equake) grow a significant BUS component
    from arbitration backlog (8 bus cycles = 32 CPU cycles per line).
    """
    return run_exhibits(["figure10"], scale, jobs)[0]


def figure11(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 11: 128-byte-wide bus at 4-cycle latency.

    Paper shape: the wide bus (one beat per line) removes the arbitration
    backlog, shrinking the BUS components relative to Figure 10.
    """
    return run_exhibits(["figure11"], scale, jobs)[0]


def figure12(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 12: stream cache and queue size effects on SYNCOPTI.

    Paper shape: Q64 reduces producer stalls, SC cuts consume-to-use
    latency, and SC+Q64 reaches within ~2% of HEAVYWT — a 2x speedup over
    EXISTING/MEMOPTI — at ~1% of the dedicated store's cost.
    """
    return run_exhibits(["figure12"], scale, jobs)[0]


# ----------------------------------------------------------------------
# Figure 8: communication frequency
# ----------------------------------------------------------------------


def _figure8(runs) -> ExperimentResult:
    sides = ("producer", "consumer")
    ratios: Dict[str, Dict[str, Optional[float]]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        outcome = runs[bench, "HEAVYWT"]
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
        for side in sides
    }
    rows = [(b, *(_fmt(r[s], ".3f") for s in sides)) for b, r in ratios.items()]
    rows.append(("GeoMean", *(_fmt(gms[s], ".3f") for s in sides)))
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


def figure8(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 8: dynamic comm-to-application instruction ratios.

    Paper shape: with produce/consume instructions, one communication per
    5-20 application instructions; wc is the extreme (3 consumes per
    iteration of a very tight loop).
    """
    return run_exhibits(["figure8"], scale, jobs)[0]


# ----------------------------------------------------------------------
# Figure 9: HEAVYWT speedup over single-threaded
# ----------------------------------------------------------------------


def _figure9_grid(scale: float) -> Grid:
    grid = _points_grid(BENCHMARK_ORDER, ["HEAVYWT"], scale)
    grid.update({(b, "SINGLE"): _cell(b, scale, kind="single") for b in BENCHMARK_ORDER})
    return grid


def _figure9(runs) -> ExperimentResult:
    speedups: Dict[str, Optional[float]] = {}
    failures: List[RunOutcome] = []
    for bench in BENCHMARK_ORDER:
        mt = runs[bench, "HEAVYWT"]
        st = runs[bench, "SINGLE"]
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


def figure9(scale: float = 1.0, jobs: int = 1) -> ExperimentResult:
    """Figure 9: loop speedup of HEAVYWT over single-threaded execution.

    Paper shape: all benchmarks at or above 1.0, geomean ~1.29x — meaning
    the other mechanisms' COMM-OP overheads can erase parallelization gains.
    """
    return run_exhibits(["figure9"], scale, jobs)[0]


# ----------------------------------------------------------------------
# Beyond the paper: K-stage DSWP pipelines on K cores
# ----------------------------------------------------------------------

#: Kernels with enough recurrences (SCCs) to fill eight pipeline stages.
PIPELINE_BENCHMARKS: Tuple[str, ...] = ("wc", "adpcmdec", "equake", "fft2")

#: The stage counts the study sweeps.
STAGE_COUNTS: Tuple[int, ...] = (2, 3, 4, 6, 8)

#: The Section 4 design points, in scaling order.
SCALING_POINTS: Tuple[str, ...] = ("EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT")


def _scaling_study(
    benchmarks: Iterable[str], stage_counts: Iterable[int], design_points: Iterable[str]
) -> Exhibit:
    """Each benchmark single-threaded and as a K-stage pipeline on K cores,
    for every stage count K and design point."""
    benchmarks = tuple(benchmarks)
    stage_counts = tuple(stage_counts)
    design_points = tuple(design_points)

    def grid(scale: float) -> Grid:
        cells: Grid = {(b, "SINGLE"): _cell(b, scale, kind="single") for b in benchmarks}
        cells.update(
            {
                (b, k, p): _cell(b, scale, design_point=p, kind="pipeline", stages=k)
                for b in benchmarks
                for k in stage_counts
                for p in design_points
            }
        )
        return cells

    def reduce(runs) -> ExperimentResult:
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
        single_cycles: Dict[str, Optional[int]] = {}
        for bench in benchmarks:
            st = runs[bench, "SINGLE"]
            single_cycles[bench] = st.cycles if st.ok else None
            if not st.ok:
                failures.append(st)
        for bench in benchmarks:
            for k in stage_counts:
                for point in design_points:
                    outcome = runs[bench, k, point]
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

        geomean_speedup = {
            p: {k: _partial_geomean(speedup[p][b][k] for b in benchmarks) for k in stage_counts}
            for p in design_points
        }
        mean_bus_util = {
            p: {k: _partial_mean(bus_util[p][b][k] for b in benchmarks) for k in stage_counts}
            for p in design_points
        }
        comm_op_delay = {
            p: {
                k: _partial_mean(
                    delay for b in benchmarks for delay in hop_delays[p][b].get(k, {}).values()
                )
                for k in stage_counts
            }
            for p in design_points
        }

        headers = ("Benchmark", *(f"K={k}" for k in stage_counts))
        sections = []
        for point in design_points:
            rows = [(b, *(_fmt(speedup[point][b][k]) for k in stage_counts)) for b in benchmarks]
            rows.append(("GeoMean", *(_fmt(geomean_speedup[point][k]) for k in stage_counts)))
            sections.append(
                f"-- {point}: speedup over single-threaded --\n" + format_table(headers, rows)
            )
        summary_rows = [
            (
                point,
                k,
                _fmt(geomean_speedup[point][k]),
                _fmt(comm_op_delay[point][k]),
                _fmt(mean_bus_util[point][k], ".1%"),
            )
            for point in design_points
            for k in stage_counts
        ]
        sections.append(
            "-- Summary: geomean speedup, mean per-hop COMM-OP delay, "
            "bus utilization --\n"
            + format_table(
                ("Design point", "K", "Speedup", "COMM-OP delay", "Bus util"),
                summary_rows,
            )
        )
        text = (
            "== Pipeline scaling: K-stage DSWP on K cores ==\n"
            + "\n\n".join(sections)
            + _failure_footer(failures)
        )
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

    return Exhibit(grid, reduce)


def pipeline_scaling(
    scale: float = 1.0,
    benchmarks: Iterable[str] = PIPELINE_BENCHMARKS,
    stage_counts: Iterable[int] = STAGE_COUNTS,
    design_points: Iterable[str] = SCALING_POINTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Scalability study: K-stage DSWP pipelines on K-core machines.

    Sweeps stage count K over each design point and kernel, on a K-core
    machine (:func:`repro.core.design_points.with_n_cores`), and reports
    per cell:

    * **speedup** — single-threaded cycles / pipelined cycles (the Figure 9
      convention, extended along the K axis);
    * **per-hop COMM-OP delay** — the paper's Section 3 quantity, folded
      from ``comm.produce`` / ``comm.consume`` trace events and grouped by
      the hop (adjacent-stage queue) each op targeted
      (:func:`repro.trace.profiler.measure_hop_delays`);
    * **bus utilization** — the shared L3 bus's busy fraction over the run,
      from the bus model's own occupancy counter.

    Expected shape (the paper's Section 6 extrapolation): SYNCOPTI and
    HEAVYWT keep scaling as stages are added, because their per-hop
    synchronization is a single instruction against a local counter (or a
    dedicated-store port); EXISTING saturates — every added hop costs two
    ~10-instruction software sequences plus flag-line ping-pong on the one
    shared bus, so the growing COMM-OP bill and bus contention absorb the
    exposed parallelism.

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

    Returns an :class:`ExperimentResult` whose ``data`` carries ``speedup``
    / ``geomean_speedup`` / ``comm_op_delay`` / ``hop_delays`` /
    ``bus_utilization`` grids keyed by design point.
    """
    return _run([_scaling_study(benchmarks, stage_counts, design_points)], scale, jobs)[0]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: Every exhibit's definition, in paper order (the scalability study
#: extends the paper).
EXHIBITS: Dict[str, Exhibit] = {
    "table1": Exhibit(lambda scale: {}, lambda runs: table1()),
    "table2": Exhibit(lambda scale: {}, lambda runs: table2()),
    "figure6": Exhibit(_figure6_grid, _figure6),
    "figure7": _breakdown_figure(
        "figure7",
        "Figure 7: Normalized execution times for each design point (producer)",
        FIGURE7_ORDER,
    ),
    "figure8": Exhibit(lambda scale: _points_grid(BENCHMARK_ORDER, ["HEAVYWT"], scale), _figure8),
    "figure9": Exhibit(_figure9_grid, _figure9),
    "figure10": _breakdown_figure(
        "figure10",
        "Figure 10: Effect of increased transit delay (bus latency = 4 CPU cycles)",
        FIGURE7_ORDER,
        overrides={"bus_latency": 4, "transit_delay": 4},
    ),
    "figure11": _breakdown_figure(
        "figure11",
        "Figure 11: Effect of increased interconnect bandwidth "
        "(transit = 4 cycles, bus width = 128 bytes)",
        FIGURE7_ORDER,
        overrides={"bus_latency": 4, "bus_width": 128, "transit_delay": 4},
    ),
    "figure12": _breakdown_figure(
        "figure12",
        "Effect of streaming cache and queue size on SYNCOPTI",
        FIGURE12_ORDER,
        bars={
            "producer_bars": (
                "producer",
                "Figure 12 (producer): stream cache and queue size effects",
            ),
            "consumer_bars": (
                "consumer",
                "Figure 12 (consumer): stream cache and queue size effects",
            ),
        },
    ),
    "pipeline_scaling": _scaling_study(PIPELINE_BENCHMARKS, STAGE_COUNTS, SCALING_POINTS),
}

#: Every exhibit's function, by name, in :data:`EXHIBITS` order.
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
    """Regenerate every exhibit from one run of their distinct cells.

    Tables take no scale.  ``jobs > 1`` runs the cells on one campaign
    worker pool; ``jobs=1`` keeps the serial in-process default.
    """
    return run_exhibits(ALL_EXPERIMENTS, scale, jobs)
