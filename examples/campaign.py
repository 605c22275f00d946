#!/usr/bin/env python3
"""Resilient campaign over the Figure 7 grid: pool + watchdog + ledger.

Runs the benchmark x design-point grid through the campaign runner with a
worker pool, a per-cell wall-clock watchdog, a crash-safe JSONL ledger of
attempts, and a result store beside it (``<ledger>.store``).  Kill it at
any point (Ctrl-C, SIGKILL, power loss) and run it again with
``--resume``: completed cells are answered from the store, in-flight ones
are re-queued, and the grid finishes where it left off.  Exits 1 if any
cell failed.

    PYTHONPATH=src python examples/campaign.py --jobs 4 --ledger fig7.jsonl
    # ... Ctrl-C mid-run ...
    PYTHONPATH=src python examples/campaign.py --jobs 4 --ledger fig7.jsonl --resume

The same grid is available from the CLI as
``python -m repro campaign run --grid figure7``.
"""

import argparse
import sys

from repro import BENCHMARK_ORDER, geomean
from repro.core.design_points import FIGURE7_ORDER
from repro.harness.campaign import CampaignCell, CampaignPolicy, run_campaign


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", default="fig7-campaign.jsonl")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--trips", type=int, default=200)
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-clock seconds per cell attempt")
    parser.add_argument("--resume", action="store_true",
                        help="continue a previous run from the ledger")
    args = parser.parse_args()

    cells = [
        CampaignCell(benchmark=b, design_point=p, trip_count=args.trips)
        for b in BENCHMARK_ORDER
        for p in FIGURE7_ORDER
    ]
    key_of = {(c.benchmark, c.design_point): c.key() for c in cells}

    policy = CampaignPolicy(jobs=args.jobs, wall_clock_budget=args.budget)
    report = run_campaign(
        cells,
        policy,
        ledger_path=args.ledger,
        resume=args.resume,
        progress=print,
    )
    print(report.summary())
    if report.store_hits:
        print(f"({len(report.store_hits)} cell(s) answered from the store)")

    # Render the surviving grid, EXISTING-relative, gaps for failures.
    # Cells completed in a previous (crashed) run come back from the store
    # in report.outcomes, without being re-simulated.
    def cycles_of(bench, point):
        outcome = report.outcomes.get(key_of[(bench, point)])
        return outcome.cycles if outcome is not None and outcome.ok else None

    print(f"\n{'benchmark':10s} " + " ".join(f"{p:>9s}" for p in FIGURE7_ORDER))
    speedups = {p: [] for p in FIGURE7_ORDER}
    for bench in BENCHMARK_ORDER:
        base = cycles_of(bench, "EXISTING")
        row = []
        for p in FIGURE7_ORDER:
            cyc = cycles_of(bench, p)
            if cyc is None or base is None:
                row.append(f"{'--':>9s}")
            else:
                speedups[p].append(base / cyc)
                row.append(f"{base / cyc:9.2f}")
        print(f"{bench:10s} " + " ".join(row))
    gm = {p: geomean(v) if v else None for p, v in speedups.items()}
    print(
        f"{'GeoMean':10s} "
        + " ".join(f"{gm[p]:9.2f}" if gm[p] else f"{'--':>9s}" for p in FIGURE7_ORDER)
    )
    return 0 if report.n_failed == 0 and not report.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
