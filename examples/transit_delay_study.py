#!/usr/bin/env python3
"""Transit-delay tolerance study (Figure 6, extended).

The paper's central architectural insight: pipelined streaming tolerates
*transit* delay (core-to-core latency) but is extremely sensitive to
*COMM-OP* delay (per-operation intra-core overhead).  This example sweeps
the dedicated interconnect's end-to-end latency from 1 to 32 cycles on
HEAVYWT and shows that execution time barely moves — except for bzip2,
whose outer-loop queue cannot be pipelined — and that a deeper queue buys
the slack back.
"""

from repro.harness.runner import run_benchmark

BENCHES = ("wc", "adpcmdec", "fir", "bzip2")
TRANSITS = (1, 4, 10, 32)
TRIPS = {"wc": 400, "adpcmdec": 300, "fir": 300, "bzip2": 320}


def main() -> None:
    print("HEAVYWT normalized execution time vs interconnect transit delay\n")
    print(f"{'benchmark':10s} " + " ".join(f"{t:>7d}c" for t in TRANSITS) + "   64-entry@10c")
    for bench in BENCHES:
        base = None
        cells = []
        for transit in TRANSITS:
            cycles = run_benchmark(
                bench, "HEAVYWT", TRIPS[bench], overrides={"transit_delay": transit}
            ).cycles
            if base is None:
                base = cycles
            cells.append(cycles / base)
        deep_cycles = run_benchmark(
            bench, "HEAVYWT", TRIPS[bench], overrides={"transit_delay": 10, "queue_depth": 64}
        ).cycles
        print(
            f"{bench:10s} "
            + " ".join(f"{v:8.2f}" for v in cells)
            + f"   {deep_cycles / base:8.2f}"
        )
    print(
        "\nPipelined queues hide transit delay (Section 2): only bzip2's\n"
        "unpipelineable outer-loop dependence is exposed, and a 64-entry\n"
        "queue restores its decoupling."
    )


if __name__ == "__main__":
    main()
