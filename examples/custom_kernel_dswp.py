#!/usr/bin/env python3
"""Bring your own loop: write an IR kernel, DSWP it, and evaluate it.

Shows the full pipeline a compiler writer would use: express a streaming
loop in the IR, let the DSWP partitioner split it into producer/consumer
stages, lower both the pipelined and the original single-threaded versions,
and measure what each communication mechanism makes of it.

The example loop is a toy image-filter: stream pixels in, table-map them,
accumulate a histogram (a loop-carried recurrence that anchors the
consumer stage), and write the mapped pixels out.
"""

from repro import baseline_config
from repro.dswp.codegen import lower_pipeline, lower_single_threaded
from repro.dswp.ir import Loop, Op, OpKind, Sequential, Strided
from repro.dswp.partition import partition_loop, plan_queue_hops
from repro.sim.machine import Machine

MB = 1 << 20


def build_filter_loop(trip_count: int = 600) -> Loop:
    base = 0x4000_0000
    return Loop(
        name="pixfilter",
        trip_count=trip_count,
        body=[
            Op("load_px", OpKind.LOAD, addr=Sequential(base, stride=1, footprint=2 * MB)),
            Op("gamma", OpKind.IALU, deps=("load_px",)),
            Op(
                "lut",
                OpKind.LOAD,
                deps=("gamma",),
                addr=Strided(base + 4 * MB, stride=4, n_elements=256, seed=41),
            ),
            Op("hist", OpKind.IALU, deps=("lut",), carried_deps=("hist",)),
            Op("blend", OpKind.IALU, deps=("lut",)),
            Op(
                "store_px",
                OpKind.STORE,
                deps=("blend",),
                addr=Sequential(base + 8 * MB, stride=1, footprint=2 * MB),
            ),
        ],
    )


def main() -> None:
    loop = build_filter_loop()
    partition = partition_loop(loop)

    print(f"DSWP partition of {loop.name!r}:")
    for stage in (0, 1):
        ops = ", ".join(op.op_id for op in partition.ops_in_stage(stage))
        print(f"  stage {stage} (weight {partition.stage_weight(stage):5.1f}): {ops}")
    queues = {value: qid for (value, _), qid in plan_queue_hops(partition).items()}
    print(f"  crossing values -> queues: {queues}")
    print(f"  comm ops per iteration: {partition.comm_ops_per_iteration()}\n")

    single = lower_single_threaded(loop)
    pipelined = lower_pipeline(partition)

    st = Machine(baseline_config(), mechanism="heavywt").run(single)
    print(f"single-threaded: {st.cycles:8d} cycles")
    for mech in ("existing", "syncopti", "syncopti_sc", "heavywt"):
        stats = Machine(baseline_config(), mechanism=mech).run(pipelined)
        speedup = st.cycles / stats.cycles
        print(
            f"{mech:12s}:    {stats.cycles:8d} cycles   "
            f"speedup over 1 thread: {speedup:4.2f}x"
        )
    print(
        "\nA mechanism with high COMM-OP delay can turn the pipelined "
        "version into a slowdown — the paper's core argument."
    )


if __name__ == "__main__":
    main()
