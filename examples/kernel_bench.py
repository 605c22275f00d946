#!/usr/bin/env python3
"""Kernel shoot-out: the same simulation under both stepping engines.

Runs the `wc` streaming kernel on the bus-heavy EXISTING design point and
the bus-light HEAVYWT point under the `reference` kernel (the seed-era
min-timestamp loop) and the `event` kernel (wakeup heap), then prints host
time, simulated cycles/sec, and the speedup.  Both kernels step the same
machine — one indexed bus calendar — so they differ only in the stepping
loop, a few percent of host time.

The punchline is the assertion at the end: both kernels produce the same
fingerprint — a kernel may change host speed, never the result.  For the
full tracked perf record, use ``python -m repro bench``.
"""

import argparse

from repro.harness.runner import run_benchmark
from repro.sim.kernel import KERNEL_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trips", type=int, default=800)
    parser.add_argument(
        "--points", nargs="+", default=["EXISTING", "HEAVYWT"], metavar="POINT"
    )
    args = parser.parse_args()

    print(f"wc, {args.trips} iterations, kernels: {', '.join(KERNEL_NAMES)}\n")
    print(f"{'design point':<12} {'kernel':<10} {'host s':>8} {'sim cyc/s':>12}")
    for point in args.points:
        results = {}
        for kernel in KERNEL_NAMES:
            res = run_benchmark("wc", point, args.trips, kernel=kernel)
            results[kernel] = res
            print(
                f"{point:<12} {kernel:<10} {res.stats.host_seconds:>8.3f} "
                f"{res.stats.simulated_cycles_per_sec:>12,.0f}"
            )
        fingerprints = {k: r.fingerprint() for k, r in results.items()}
        assert len(set(fingerprints.values())) == 1, (
            f"{point}: kernels disagree: {fingerprints}"
        )
        ref = results["reference"].stats
        ev = results["event"].stats
        if ref.host_seconds > 0 and ev.host_seconds > 0:
            print(
                f"{point:<12} event speedup "
                f"{ref.host_seconds / ev.host_seconds:.2f}x, "
                f"fingerprint {fingerprints['reference']} (identical)\n"
            )


if __name__ == "__main__":
    main()
