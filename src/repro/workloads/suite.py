"""The benchmark suite registry (Table 1 + StreamIt).

Single entry point for building every benchmark's pipelined and
single-threaded programs, with the partitioning mode the paper used for
each at two stages: DSWP-compiled for the SPEC/Mediabench/utility loops,
hand-partitioned for the StreamIt kernels and the bzip2 loop nest.  Deeper
pipelines (the scaling study) chain-decompose the same loops with
:func:`~repro.dswp.partition.partition_loop_k`; bzip2's hand-written nest
exists only at two stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dswp.codegen import lower_pipeline, lower_single_threaded
from repro.dswp.ir import Loop
from repro.dswp.partition import Partition, partition_loop, partition_loop_k
from repro.sim.program import Program
from repro.workloads import nested
from repro.workloads.kernels import HAND_PARTITIONS, LOOP_BUILDERS


@dataclass(frozen=True)
class BenchmarkInfo:
    """Suite metadata, mirroring Table 1 of the paper."""

    name: str
    function: str
    source: str
    pct_exec_time: str
    partition_mode: str  # "dswp" | "hand" | "nested"
    default_trip: int


#: Table 1 rows plus the two StreamIt benchmarks, in the paper's figure order.
BENCHMARKS: Dict[str, BenchmarkInfo] = {
    info.name: info
    for info in (
        BenchmarkInfo("art", "match", "SPEC CPU2000 (179.art)", "20%", "dswp", 1200),
        BenchmarkInfo("equake", "smvp", "SPEC CPU2000 (183.equake)", "68%", "dswp", 1000),
        BenchmarkInfo(
            "mcf", "refresh_potential", "SPEC CPU2000 (181.mcf)", "30%", "dswp", 800
        ),
        BenchmarkInfo(
            "bzip2",
            "getAndMoveToFrontDecode",
            "SPEC CPU2000 (256.bzip2)",
            "17%",
            "nested",
            1200,
        ),
        BenchmarkInfo(
            "adpcmdec", "adpcm_decoder", "Mediabench", "98%", "dswp", 1500
        ),
        BenchmarkInfo(
            "epicdec", "read_and_huffman_decode", "Mediabench", "21%", "dswp", 1200
        ),
        BenchmarkInfo("wc", "cnt", "Unix utility", "100%", "hand", 2500),
        BenchmarkInfo("fir", "fir", "StreamIt", "-", "hand", 2000),
        BenchmarkInfo("fft2", "fft2", "StreamIt", "-", "hand", 1000),
    )
}

#: The paper's figure x-axis order.
BENCHMARK_ORDER: Tuple[str, ...] = tuple(BENCHMARKS)


def benchmark_info(name: str) -> BenchmarkInfo:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(BENCHMARKS)
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def build_loop(name: str, trip_count: Optional[int] = None) -> Loop:
    """The single-level IR loop of a non-nested benchmark."""
    info = benchmark_info(name)
    if info.partition_mode == "nested":
        raise ValueError(f"{name} is a loop nest; it has no single-level IR loop")
    trips = trip_count if trip_count is not None else info.default_trip
    return LOOP_BUILDERS[name](trips)


def build_partition(
    name: str, trip_count: Optional[int] = None, stages: int = 2
) -> Partition:
    """The ``stages``-stage partition of a non-nested benchmark: the paper's
    own at two stages, :func:`~repro.dswp.partition.partition_loop_k`'s
    beyond."""
    info = benchmark_info(name)
    loop = build_loop(name, trip_count)
    if stages != 2:
        return partition_loop_k(loop, stages)
    if info.partition_mode == "hand":
        partition = Partition(loop=loop, stage_of=dict(HAND_PARTITIONS[name]))
        partition.validate()
        return partition
    return partition_loop(loop)


def build_pipelined(
    name: str, trip_count: Optional[int] = None, stages: int = 2
) -> Program:
    """The ``stages``-thread streaming program; at two stages, the one the
    paper evaluates."""
    info = benchmark_info(name)
    trips = trip_count if trip_count is not None else info.default_trip
    if info.partition_mode == "nested" and stages == 2:
        return nested.bzip2_pipelined(trips)
    return lower_pipeline(build_partition(name, trips, stages))


def build_single_threaded(name: str, trip_count: Optional[int] = None) -> Program:
    """The original loop on one core (Figure 9 baseline)."""
    info = benchmark_info(name)
    trips = trip_count if trip_count is not None else info.default_trip
    if info.partition_mode == "nested":
        return nested.bzip2_single(trips)
    return lower_single_threaded(build_loop(name, trips))
