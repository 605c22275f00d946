"""Self-test of the benchmark at tiny size (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit plus the workload's named metrics,
and that a traced run emits every per-layer metric with self times summing
to the traced wall time.  The sum holds by construction, so it also checks
that every simulator layer's wrappers fire (nonzero self time and call
count) and that the bus calendar takes a larger share of the reference
kernel's time than of the event kernel's.  Finally, a corrupted golden
fingerprint must be caught and counted as a failure.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import pin_hash_seed  # noqa: E402

TINY = dict(
    grid_scale=0.1, setup_repeats=1, min_passes=1, universe_size=6,
    requests_per_pass=40, misses_per_pass=2, coalesce_batches=1,
)


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
    print(f"ok  {message}")


def declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main() -> int:
    pin_hash_seed(os.path.abspath(__file__))
    import cells
    import workloads
    from tracer import COUNT_KEYS, Tracer

    sizes = workloads.Sizes(**TINY)
    workdir = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    calendar_share = {}
    try:
        check(end_to_end == workloads.END_TO_END, "BENCHMARK.json end_to_end matches the code")
        check(per_layer == workloads.PER_LAYER, "BENCHMARK.json per_layer matches the code")

        grid = cells.grid_cells("event", sizes.grid_scale)
        with Tracer().install_simulator() as tracer:
            workloads.run_cells_checked(grid, cells.GoldenCheck(cells.load_golden()))
            tracer.flush()
        for layer, key in COUNT_KEYS.items():
            check(tracer.self_s[layer] > 0 and tracer.counts.get(key, 0) > 0,
                  f"traced grid-event: {layer} has self time and {key} calls")

        for name in workloads.RUNNERS:
            out = workloads.run(name, 7, 1, False, workdir, sizes)
            doc = workloads.summary(out, False)
            check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result has exactly the four keys")
            check(doc["correct"] and doc["attempted"] >= 1, f"{name}: tiny run is correct")
            check({k: v["unit"] for k, v in doc["metrics"].items()} == end_to_end,
                  f"{name}: every end-to-end metric emitted with its unit")
            check(all(v["value"] > 0 for v in doc["metrics"].values()),
                  f"{name}: end-to-end metrics are positive")
            check(set(workloads.REPORTED[name]) <= set(out.report),
                  f"{name}: named metrics {sorted(workloads.REPORTED[name])} reported")

            traced = workloads.run(name, 7, 1, True, workdir, sizes)
            doc = workloads.summary(traced, True)
            check(doc["correct"], f"{name}: traced run is correct")
            check({k: v["unit"] for k, v in doc["metrics"].items()} == per_layer,
                  f"{name}: every per-layer metric emitted with its unit")
            m = traced.metrics
            layers = sum(m[k] for k in workloads.SELF_TIME_METRICS.values())
            # Only the few timer calls outside the first and last mark differ.
            check(abs(layers - m["trace.wall_s"]) <= 1e-4 * m["trace.wall_s"] + 1e-5,
                  f"{name}: layer self times sum to the traced wall time")
            calendar_share[name] = m["bus.calendar_s"] / m["trace.wall_s"]

        reference, event = calendar_share["campaign-reference"], calendar_share["grid-event"]
        check(reference > event,
              f"bus calendar share of traced time: reference {reference:.2f} > event {event:.2f}")

        golden = cells.load_golden()
        victim = cells.label(cells.grid_cells("event", sizes.grid_scale)[0])
        golden[victim] = dict(golden[victim], fingerprint="0" * 16)
        corrupt = os.path.join(ROOT, ".perfbench", f"corrupt-golden-{os.getpid()}.json")
        with open(corrupt, "w", encoding="utf-8") as fh:
            json.dump({"cells": golden}, fh)
        try:
            out = workloads.run("grid-event", 7, 1, False, workdir, sizes, golden_path=corrupt)
        finally:
            os.remove(corrupt)
        doc = workloads.summary(out, False)
        check(doc["failed"] == 1 and not doc["correct"],
              f"corrupted golden fingerprint of {victim} counted as one failure")
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
