"""``repro.bench`` — the tracked perf trajectory of the simulator itself.

Every other module in this repository measures *simulated* time; this one
measures *host* time: how many simulated cycles per host second each
registered stepping kernel (:mod:`repro.sim.kernel`) achieves across the
Figure-9 sweep (every Figure-7 design point plus the single-threaded
baseline), and how many campaign cells per minute the harness sustains
under each kernel.

The run doubles as a differential test: every (benchmark, design point)
cell is executed once per kernel and the fingerprints must agree — a
kernel that got faster by simulating something different fails here
before it can skew an exhibit.

Since PR 8 the record also carries the result store's cold-vs-warm
campaign numbers (:func:`bench_store`): the same grid run against a fresh
store and then re-run against the populated one, where every cell must
come back as a hit with a bit-identical fingerprint — the store's dedupe
contract measured as a throughput ratio.

Since PR 9 the record is also compared against the previous committed
record (:func:`compare_baseline`): a seam threaded under a hot path —
the chaos FS facade, the ``repro.obs`` telemetry gates — is supposed to
cost *nothing* when disabled, and the per-kernel throughput ratio against
the previous record is the receipt.  The ratio gates ``--check`` only when
both records were taken at the same trip count (quick vs full), with
generous bounds — shared-CI hosts are noisy; the gate exists to catch a
forgotten debug hook or any other structural change (2x), not a 5% wobble.

Results land in ``BENCH_<n>.json`` (``BENCH_11.json`` now, compared
against ``BENCH_10.json``), the committed perf record the CI perf-smoke job
regenerates with ``--quick --check`` to catch regressions where the event
kernel stops paying for itself — or where warm store reruns stop being
hits.

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
from typing import Dict, List, Optional, Sequence

from repro.sim.stats import geomean

#: Identifier stamped into the payload and the default output file name.
BENCH_ID = "BENCH_11"

#: Previous committed record, the throughput baseline.
BASELINE_ID = "BENCH_10"

#: Acceptable per-kernel throughput ratio (current / baseline) when the
#: two records share a trip count.  Deliberately loose: the gate is for
#: structural regressions (an accidentally-enabled shim, a hot-path
#: import), not host noise.
BASELINE_RATIO_MIN = 0.5
BASELINE_RATIO_MAX = 2.0

#: The sweep's workload: the paper's flagship streaming kernel.  One
#: benchmark keeps the full grid (kernels x design points) under a minute
#: while still exercising every mechanism's bus/queue behaviour.
BENCH_BENCHMARK = "wc"

#: Trip counts: full runs are long enough that per-run host time is
#: seconds (timing noise < 2%); quick runs are CI-sized.
FULL_TRIPS = 1500
QUICK_TRIPS = 300

#: Timed samples per (kernel, design point) row.  Each sample round runs
#: every kernel back to back (alternating which goes first) and a row keeps
#: its fastest sample, as ``timeit`` does: host interference only adds time.
#: Both kernels step the same machine, so their throughputs differ by a few
#: percent — less than one sample's noise on a shared host.
REPEATS = 3

#: Campaign-throughput probe: the smoke grid's shape (2 benchmarks x the
#: Figure-7 design points), small trips — measures harness + simulator
#: throughput in cells/min, the unit campaign ETAs are quoted in.
CAMPAIGN_BENCHMARKS = ("wc", "fir")
CAMPAIGN_TRIPS = 96


def bench_grid(
    kernels: Sequence[str],
    trips: int,
    benchmark: str = BENCH_BENCHMARK,
) -> List[Dict[str, object]]:
    """Run ``benchmark`` on every design point under every kernel.

    Returns one row per (kernel, design point) with ``cycles``,
    ``host_seconds``, ``simulated_cycles_per_sec`` and ``fingerprint`` —
    plus a ``SINGLE`` row per kernel for the Figure-9 single-threaded
    baseline — each from the fastest of :data:`REPEATS` interleaved
    samples.  Rows are measurement records; cross-kernel checks
    live in :func:`check_rows`.
    """
    from repro.core.design_points import FIGURE7_ORDER
    from repro.harness.runner import run_benchmark, run_single_threaded

    points = list(FIGURE7_ORDER) + ["SINGLE"]
    fastest: Dict[tuple, object] = {}
    for point in points:
        for sample in range(REPEATS):
            order = kernels if sample % 2 == 0 else list(reversed(kernels))
            for kernel in order:
                if point == "SINGLE":
                    res = run_single_threaded(benchmark, trips, kernel=kernel)
                else:
                    res = run_benchmark(benchmark, point, trips, kernel=kernel)
                best = fastest.get((kernel, point))
                if best is None or res.stats.host_seconds < best.stats.host_seconds:
                    fastest[(kernel, point)] = res
    return [
        _row(kernel, benchmark, point, fastest[(kernel, point)])
        for kernel in kernels
        for point in points
    ]


def _row(kernel: str, benchmark: str, point: str, res) -> Dict[str, object]:
    return {
        "kernel": kernel,
        "benchmark": benchmark,
        "design_point": point,
        "cycles": res.cycles,
        "host_seconds": round(res.stats.host_seconds, 4),
        "simulated_cycles_per_sec": round(res.stats.simulated_cycles_per_sec, 1),
        "fingerprint": res.fingerprint(),
    }


def bench_campaign(kernels: Sequence[str], trips: int = CAMPAIGN_TRIPS):
    """Campaign throughput per kernel: serial ``run_cells`` over the smoke
    grid, reported as cells per minute."""
    from repro.core.design_points import FIGURE7_ORDER
    from repro.harness.campaign import CampaignCell, run_cells

    out: Dict[str, Dict[str, object]] = {}
    for kernel in kernels:
        cells = [
            CampaignCell(
                benchmark=b, design_point=p, trip_count=trips, kernel=kernel
            )
            for b in CAMPAIGN_BENCHMARKS
            for p in FIGURE7_ORDER
        ]
        started = time.perf_counter()
        outcomes = run_cells(cells)
        elapsed = time.perf_counter() - started
        n_ok = sum(1 for o in outcomes.values() if o.ok)
        out[kernel] = {
            "cells": len(cells),
            "ok": n_ok,
            "seconds": round(elapsed, 3),
            "cells_per_min": round(len(cells) * 60.0 / elapsed, 1),
        }
    return out


def bench_store(
    kernel: str = "reference", trips: int = CAMPAIGN_TRIPS
) -> Dict[str, object]:
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

    from repro.core.design_points import FIGURE7_ORDER
    from repro.harness.campaign import CampaignCell, run_campaign
    from repro.store.store import ResultStore

    cells = [
        CampaignCell(benchmark=b, design_point=p, trip_count=trips, kernel=kernel)
        for b in CAMPAIGN_BENCHMARKS
        for p in FIGURE7_ORDER
    ]
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
        "kernel": kernel,
        "cells": len(cells),
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
        "warm_hits": len(warm.store_hits),
        "all_hits": len(warm.store_hits) == len(cells),
        "fingerprints_identical": cold_fps == warm_fps and len(cold_fps) == len(cells),
    }


def check_rows(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Cross-kernel verification over the measurement rows.

    * fingerprints: every kernel must produce the same fingerprint for the
      same (benchmark, design point) cell — the kernels' core contract;
    * speedup: per-design-point event/reference throughput ratios and
      their geomean, the number the CI smoke gates on.
    """
    by_cell: Dict[tuple, Dict[str, str]] = {}
    for row in rows:
        cell = (row["benchmark"], row["design_point"])
        by_cell.setdefault(cell, {})[row["kernel"]] = row["fingerprint"]
    mismatches = [
        {"benchmark": b, "design_point": p, "fingerprints": fps}
        for (b, p), fps in sorted(by_cell.items())
        if len(set(fps.values())) > 1
    ]

    scps: Dict[str, Dict[str, float]] = {}
    for row in rows:
        scps.setdefault(row["kernel"], {})[row["design_point"]] = float(
            row["simulated_cycles_per_sec"]
        )
    speedup: Dict[str, float] = {}
    ref = scps.get("reference", {})
    ev = scps.get("event", {})
    for point in ref:
        if point in ev and ref[point] > 0:
            speedup[point] = round(ev[point] / ref[point], 2)
    return {
        "fingerprints_match": not mismatches,
        "mismatches": mismatches,
        "event_speedup_vs_reference": speedup,
        "event_speedup_geomean": (
            round(geomean(speedup.values()), 2) if speedup else None
        ),
    }


def compare_baseline(
    rows: List[Dict[str, object]],
    quick: bool,
    baseline_path: Optional[str] = None,
) -> Optional[Dict[str, object]]:
    """Per-kernel throughput ratio against the previous committed record.

    Computes, for every kernel present in both records, the geomean over
    design points of ``current simulated_cycles_per_sec / baseline``.
    The ratios only ``gate`` (feed ``--check``) when both records were
    taken at the same trip count — comparing a ``--quick`` run against
    the committed full run measures trip count, not the code.  Returns
    ``None`` when no baseline record can be read (fresh checkout,
    renamed file): absence of a baseline is not a regression.
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

    def scps(rs) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for r in rs:
            out.setdefault(r["kernel"], {})[r["design_point"]] = float(
                r["simulated_cycles_per_sec"]
            )
        return out

    cur, base = scps(rows), scps(baseline.get("rows", []))
    ratios: Dict[str, float] = {}
    for kernel in cur:
        shared = [
            cur[kernel][p] / base[kernel][p]
            for p in cur[kernel]
            if p in base.get(kernel, {}) and base[kernel][p] > 0
        ]
        if shared:
            ratios[kernel] = round(geomean(shared), 3)
    if not ratios:
        return None
    gate = bool(baseline.get("quick", False)) == quick
    within = all(
        BASELINE_RATIO_MIN <= r <= BASELINE_RATIO_MAX for r in ratios.values()
    )
    return {
        "baseline_id": baseline.get("bench_id", BASELINE_ID),
        "baseline_trips": baseline.get("trips"),
        "throughput_ratio": ratios,
        "gate": gate,
        "within_bounds": within,
        "bounds": [BASELINE_RATIO_MIN, BASELINE_RATIO_MAX],
    }


def run_bench(
    quick: bool = False,
    kernels: Optional[Sequence[str]] = None,
    with_campaign: bool = True,
) -> Dict[str, object]:
    """Execute the full benchmark and return the ``BENCH_ID`` payload."""
    from repro.sim.kernel import KERNEL_NAMES

    kernels = list(kernels) if kernels is not None else list(KERNEL_NAMES)
    trips = QUICK_TRIPS if quick else FULL_TRIPS
    rows = bench_grid(kernels, trips)
    payload: Dict[str, object] = {
        "bench_id": BENCH_ID,
        "quick": quick,
        "benchmark": BENCH_BENCHMARK,
        "trips": trips,
        "repeats": REPEATS,
        "kernels": kernels,
        "rows": rows,
        "checks": check_rows(rows),
    }
    baseline = compare_baseline(rows, quick)
    if baseline is not None:
        payload["baseline"] = baseline
    if with_campaign:
        payload["campaign"] = bench_campaign(
            kernels, trips=max(32, trips // 8)
        )
        payload["store"] = bench_store(trips=max(32, trips // 8))
    return payload


def render(payload: Dict[str, object]) -> str:
    """Human-readable summary of a bench payload."""
    lines = [f"{payload['bench_id']}: {payload['benchmark']} x "
             f"{len(payload['kernels'])} kernel(s), trips={payload['trips']}, "
             f"fastest of {payload['repeats']}"]
    lines.append(
        f"{'kernel':<10} {'design point':<12} {'cycles':>10} "
        f"{'host s':>8} {'sim cyc/s':>12}"
    )
    for row in payload["rows"]:
        lines.append(
            f"{row['kernel']:<10} {row['design_point']:<12} "
            f"{row['cycles']:>10} {row['host_seconds']:>8.3f} "
            f"{row['simulated_cycles_per_sec']:>12,.0f}"
        )
    checks = payload["checks"]
    lines.append(
        "fingerprints: "
        + ("all kernels agree" if checks["fingerprints_match"] else "MISMATCH")
    )
    if checks["event_speedup_vs_reference"]:
        pairs = ", ".join(
            f"{p}={s}x" for p, s in checks["event_speedup_vs_reference"].items()
        )
        lines.append(
            f"event vs reference: {pairs} "
            f"(geomean {checks['event_speedup_geomean']}x)"
        )
    for kernel, camp in payload.get("campaign", {}).items():
        lines.append(
            f"campaign [{kernel}]: {camp['ok']}/{camp['cells']} cells in "
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
        pairs = ", ".join(
            f"{k}={r}x" for k, r in baseline["throughput_ratio"].items()
        )
        gated = "gated" if baseline["gate"] else "informational (trips differ)"
        lines.append(
            f"vs {baseline['baseline_id']}: {pairs} [{gated}]"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Measure simulated cycles/sec per kernel across the Figure-9 "
            "sweep and campaign cells/min; emit the BENCH json record."
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
            "exit non-zero unless every kernel's fingerprints agree and the "
            "event kernel's geomean throughput is >= the reference kernel's"
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
        checks = payload["checks"]
        if not checks["fingerprints_match"]:
            print("CHECK FAILED: kernels disagree on fingerprints")
            return 1
        gm = checks["event_speedup_geomean"]
        if gm is not None and gm < 1.0:
            print(f"CHECK FAILED: event kernel slower than reference ({gm}x)")
            return 1
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
