"""``repro.bench`` — the tracked perf trajectory of the simulator itself.

Every other module in this repository measures *simulated* time; this one
measures *host* time: how many simulated cycles per host second the
stepping loop (:mod:`repro.sim.kernel`) achieves across the Figure-9 sweep
(every Figure-7 design point plus the single-threaded baseline), and how
many campaign cells per minute the harness sustains.

Since PR 8 the record also carries the result store's cold-vs-warm
campaign numbers (:func:`bench_store`): the same grid run against a fresh
store and then re-run against the populated one, where every cell must
come back as a hit with a bit-identical fingerprint — the store's dedupe
contract measured as a throughput ratio.

Since PR 9 the record is also compared against the previous committed
record (:func:`compare_baseline`): a seam threaded under a hot path —
the chaos FS facade, the ``repro.obs`` telemetry gates — is supposed to
cost *nothing* when disabled, and the throughput ratio against the
previous record is the receipt.  The ratio gates ``--check`` only when
both records were taken at the same trip count (quick vs full), with
generous bounds — shared-CI hosts are noisy; the gate exists to catch a
forgotten debug hook or any other structural change (2x), not a 5% wobble.

Results land in ``BENCH_<n>.json`` (``BENCH_11.json`` now, compared
against ``BENCH_10.json``'s ``reference`` rows), the committed perf record
the CI perf-smoke job regenerates with ``--quick --check`` to catch warm
store reruns that stop being hits.  Full-size fingerprints are gated by
the tier-1 golden-grid test, not here.

Usage::

    python -m repro bench                 # full measurement, BENCH_11.json
    python -m repro bench --quick --check # CI smoke: fast + assertions
    python -m repro.bench --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.sim.stats import geomean

#: Identifier stamped into the payload and the default output file name.
BENCH_ID = "BENCH_11"

#: Previous committed record, the throughput baseline.
BASELINE_ID = "BENCH_10"

#: Acceptable throughput ratio (current / baseline) when the two records
#: share a trip count.  Deliberately loose: the gate is for structural
#: regressions (an accidentally-enabled shim, a hot-path import), not host
#: noise.
BASELINE_RATIO_MIN = 0.5
BASELINE_RATIO_MAX = 2.0

#: The sweep's workload: the paper's flagship streaming kernel.  One
#: benchmark keeps the full grid under a minute while still exercising
#: every mechanism's bus/queue behaviour.
BENCH_BENCHMARK = "wc"

#: Trip counts: full runs are long enough that per-run host time is
#: seconds (timing noise < 2%); quick runs are CI-sized.
FULL_TRIPS = 1500
QUICK_TRIPS = 300

#: Timed samples per design-point row; a row keeps its fastest sample, as
#: ``timeit`` does: host interference only adds time.
REPEATS = 3

#: Campaign-throughput probe: the smoke grid's shape (2 benchmarks x the
#: Figure-7 design points), small trips — measures harness + simulator
#: throughput in cells/min, the unit campaign ETAs are quoted in.
CAMPAIGN_BENCHMARKS = ("wc", "fir")
CAMPAIGN_TRIPS = 96


def bench_grid(trips: int, benchmark: str = BENCH_BENCHMARK) -> List[Dict[str, object]]:
    """Run ``benchmark`` on every design point.

    Returns one row per design point with ``cycles``, ``host_seconds``,
    ``simulated_cycles_per_sec`` and ``fingerprint`` — plus a ``SINGLE``
    row for the Figure-9 single-threaded baseline — each from the fastest
    of :data:`REPEATS` samples.
    """
    from repro.core.design_points import FIGURE7_ORDER
    from repro.harness.runner import run_benchmark, run_single_threaded

    rows = []
    for point in list(FIGURE7_ORDER) + ["SINGLE"]:
        fastest = None
        for _ in range(REPEATS):
            if point == "SINGLE":
                res = run_single_threaded(benchmark, trips)
            else:
                res = run_benchmark(benchmark, point, trips)
            if fastest is None or res.stats.host_seconds < fastest.stats.host_seconds:
                fastest = res
        rows.append(_row(benchmark, point, fastest))
    return rows


def _row(benchmark: str, point: str, res) -> Dict[str, object]:
    return {
        "benchmark": benchmark,
        "design_point": point,
        "cycles": res.cycles,
        "host_seconds": round(res.stats.host_seconds, 4),
        "simulated_cycles_per_sec": round(res.stats.simulated_cycles_per_sec, 1),
        "fingerprint": res.fingerprint(),
    }


def _smoke_cells(trips: int):
    from repro.core.design_points import FIGURE7_ORDER
    from repro.harness.campaign import CampaignCell

    return [
        CampaignCell(benchmark=b, design_point=p, trip_count=trips)
        for b in CAMPAIGN_BENCHMARKS
        for p in FIGURE7_ORDER
    ]


def bench_campaign(trips: int = CAMPAIGN_TRIPS) -> Dict[str, object]:
    """Campaign throughput: serial ``run_cells`` over the smoke grid,
    reported as cells per minute."""
    from repro.harness.campaign import run_cells

    cells = _smoke_cells(trips)
    started = time.perf_counter()
    outcomes = run_cells(cells)
    elapsed = time.perf_counter() - started
    return {
        "cells": len(cells),
        "ok": sum(1 for o in outcomes.values() if o.ok),
        "seconds": round(elapsed, 3),
        "cells_per_min": round(len(cells) * 60.0 / elapsed, 1),
    }


def bench_store(trips: int = CAMPAIGN_TRIPS) -> Dict[str, object]:
    """Cold-vs-warm store campaign: the memoization contract as a number.

    Runs the smoke-shaped grid against a fresh result store (cold — every
    cell simulates and publishes), then the same grid against the now
    populated store (warm — every cell must be a hit).  Reports both
    wall-clock times, the warm/cold throughput ratio, and whether the
    warm pass was 100% hits with fingerprints bit-identical to the cold
    pass — the check CI gates on.
    """
    import shutil
    import tempfile

    from repro.harness.campaign import run_campaign
    from repro.store.store import ResultStore

    cells = _smoke_cells(trips)
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = ResultStore(root)
        started = time.perf_counter()
        cold = run_campaign(cells, store=store)
        cold_s = time.perf_counter() - started
        cold_fps = {
            k: o.fingerprint() for k, o in cold.outcomes.items() if o.ok
        }

        started = time.perf_counter()
        warm = run_campaign(cells, store=store)
        warm_s = time.perf_counter() - started
        warm_fps = {
            k: o.fingerprint() for k, o in warm.outcomes.items() if o.ok
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cells": len(cells),
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
        "warm_hits": len(warm.store_hits),
        "all_hits": len(warm.store_hits) == len(cells),
        "fingerprints_identical": cold_fps == warm_fps and len(cold_fps) == len(cells),
    }


def compare_baseline(
    rows: List[Dict[str, object]],
    quick: bool,
    baseline_path: Optional[str] = None,
) -> Optional[Dict[str, object]]:
    """Throughput ratio against the previous committed record.

    The geomean over design points of ``current simulated_cycles_per_sec /
    baseline``, against the baseline's ``reference`` rows (records written
    while two stepping loops existed carry a row per loop; the one loop
    continues the ``reference`` trajectory).  The ratio only ``gate``s
    (feeds ``--check``) when both records were taken at the same trip count
    — comparing a ``--quick`` run against the committed full run measures
    trip count, not the code.  Returns ``None`` when no baseline record can
    be read (fresh checkout, renamed file): absence of a baseline is not a
    regression.
    """
    import os

    if baseline_path is None:
        baseline_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            f"{BASELINE_ID}.json",
        )
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        return None

    base = {
        r["design_point"]: float(r["simulated_cycles_per_sec"])
        for r in baseline.get("rows", [])
        if r.get("kernel", "reference") == "reference"
    }
    shared = [
        float(r["simulated_cycles_per_sec"]) / base[r["design_point"]]
        for r in rows
        if base.get(r["design_point"], 0) > 0
    ]
    if not shared:
        return None
    ratio = round(geomean(shared), 3)
    return {
        "baseline_id": baseline.get("bench_id", BASELINE_ID),
        "baseline_trips": baseline.get("trips"),
        "throughput_ratio": ratio,
        "gate": bool(baseline.get("quick", False)) == quick,
        "within_bounds": BASELINE_RATIO_MIN <= ratio <= BASELINE_RATIO_MAX,
        "bounds": [BASELINE_RATIO_MIN, BASELINE_RATIO_MAX],
    }


def run_bench(quick: bool = False, with_campaign: bool = True) -> Dict[str, object]:
    """Execute the full benchmark and return the ``BENCH_ID`` payload."""
    trips = QUICK_TRIPS if quick else FULL_TRIPS
    rows = bench_grid(trips)
    payload: Dict[str, object] = {
        "bench_id": BENCH_ID,
        "quick": quick,
        "benchmark": BENCH_BENCHMARK,
        "trips": trips,
        "repeats": REPEATS,
        "rows": rows,
    }
    baseline = compare_baseline(rows, quick)
    if baseline is not None:
        payload["baseline"] = baseline
    if with_campaign:
        payload["campaign"] = bench_campaign(trips=max(32, trips // 8))
        payload["store"] = bench_store(trips=max(32, trips // 8))
    return payload


def render(payload: Dict[str, object]) -> str:
    """Human-readable summary of a bench payload."""
    lines = [f"{payload['bench_id']}: {payload['benchmark']}, "
             f"trips={payload['trips']}, fastest of {payload['repeats']}"]
    lines.append(
        f"{'design point':<12} {'cycles':>10} {'host s':>8} {'sim cyc/s':>12}"
    )
    for row in payload["rows"]:
        lines.append(
            f"{row['design_point']:<12} {row['cycles']:>10} "
            f"{row['host_seconds']:>8.3f} {row['simulated_cycles_per_sec']:>12,.0f}"
        )
    camp = payload.get("campaign")
    if camp:
        lines.append(
            f"campaign: {camp['ok']}/{camp['cells']} cells in "
            f"{camp['seconds']}s = {camp['cells_per_min']} cells/min"
        )
    store = payload.get("store")
    if store:
        lines.append(
            f"store: cold {store['cold_seconds']}s -> warm "
            f"{store['warm_seconds']}s ({store['warm_speedup']}x), "
            f"{store['warm_hits']}/{store['cells']} hits, fingerprints "
            + ("identical" if store["fingerprints_identical"] else "DIFFER")
        )
    baseline = payload.get("baseline")
    if baseline:
        gated = "gated" if baseline["gate"] else "informational (trips differ)"
        lines.append(
            f"vs {baseline['baseline_id']}: {baseline['throughput_ratio']}x [{gated}]"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Measure simulated cycles/sec across the Figure-9 sweep and "
            "campaign cells/min; emit the BENCH json record."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI-sized trips ({QUICK_TRIPS} instead of {FULL_TRIPS})",
    )
    parser.add_argument(
        "--out",
        default=f"{BENCH_ID}.json",
        help=f"output path for the json record (default: {BENCH_ID}.json)",
    )
    parser.add_argument(
        "--no-campaign",
        action="store_true",
        help="skip the campaign cells/min probe",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero unless a warm store rerun is all hits with the "
            "cold run's fingerprints and throughput against the baseline "
            "record stays in bounds"
        ),
    )
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick, with_campaign=not args.no_campaign)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(render(payload))
    print(f"wrote {args.out}")

    if args.check:
        store = payload.get("store")
        if store is not None:
            if not store["all_hits"]:
                print(
                    f"CHECK FAILED: warm store rerun had "
                    f"{store['warm_hits']}/{store['cells']} hits (want all)"
                )
                return 1
            if not store["fingerprints_identical"]:
                print("CHECK FAILED: warm store fingerprints differ from cold")
                return 1
        baseline = payload.get("baseline")
        if baseline is not None and baseline["gate"] and not baseline["within_bounds"]:
            lo, hi = baseline["bounds"]
            print(
                f"CHECK FAILED: throughput vs {baseline['baseline_id']} "
                f"outside [{lo}, {hi}]: {baseline['throughput_ratio']}"
            )
            return 1
        print("checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
