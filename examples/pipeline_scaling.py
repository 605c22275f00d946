#!/usr/bin/env python3
"""Driver for the pipeline-scaling study: K-stage DSWP on K cores.

Sweeps pipeline stage count over the four communication design points and
prints speedup, per-hop COMM-OP delay, and shared-bus utilization.  The
paper's machine is a dual-core CMP; this study asks how each design point's
synchronization fares as the pipeline deepens: HEAVYWT (dedicated store +
interconnect) and SYNCOPTI (occupancy counters) keep scaling, while
EXISTING's software queues saturate under growing sync and bus contention.

Usage::

    PYTHONPATH=src python examples/pipeline_scaling.py
    PYTHONPATH=src python examples/pipeline_scaling.py \
        --scale 0.1 --stages 2 4 --benchmarks wc --points EXISTING HEAVYWT
"""

import argparse

from repro.harness.experiments import (
    PIPELINE_BENCHMARKS,
    SCALING_POINTS,
    STAGE_COUNTS,
    pipeline_scaling,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on per-benchmark iteration counts (default 1.0)",
    )
    parser.add_argument(
        "--stages",
        type=int,
        nargs="+",
        default=list(STAGE_COUNTS),
        metavar="K",
        help=f"pipeline stage counts to sweep (default {list(STAGE_COUNTS)})",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(PIPELINE_BENCHMARKS),
        metavar="NAME",
        help=f"kernels to run (default {list(PIPELINE_BENCHMARKS)})",
    )
    parser.add_argument(
        "--points",
        nargs="+",
        default=list(SCALING_POINTS),
        metavar="POINT",
        help=f"design points to compare (default {list(SCALING_POINTS)})",
    )
    args = parser.parse_args()
    result = pipeline_scaling(
        scale=args.scale,
        benchmarks=args.benchmarks,
        stage_counts=args.stages,
        design_points=args.points,
    )
    print(result.text)
    return 1 if result.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
