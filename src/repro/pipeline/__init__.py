"""Multi-stage DSWP pipelines on N-core CMPs.

The paper evaluates its communication design points on a dual-core machine,
but frames synchronization scalability — distributed occupancy counters vs.
memory flags, a shared bus vs. a dedicated interconnect — as the axis that
decides how streaming support extends beyond two cores.  This package holds
the study that makes the n > 2 regime reachable,
:mod:`repro.pipeline.scaling`: the ``pipeline_scaling`` experiment sweeps
stage counts across the four design points and reports speedup, per-hop
COMM-OP delay, and shared-bus utilization.

Partitioning and lowering are :mod:`repro.dswp`'s for every stage count —
:func:`partition_loop_k` chain-decomposes the dependence DAG into K
balanced stages, :func:`plan_queue_hops` assigns one queue per
adjacent-stage hop, and :func:`lower_pipeline` emits one thread per stage
with relay forwarding for values used more than one stage downstream — and
are re-exported here.  The paper's dual-core programs are the K=2 case of
the same lowering.
"""

from repro.dswp.codegen import lower_pipeline
from repro.dswp.partition import partition_loop_k, plan_queue_hops
from repro.pipeline.scaling import (
    PIPELINE_BENCHMARKS,
    SCALING_POINTS,
    STAGE_COUNTS,
    pipeline_scaling,
)

__all__ = [
    "PIPELINE_BENCHMARKS",
    "SCALING_POINTS",
    "STAGE_COUNTS",
    "lower_pipeline",
    "partition_loop_k",
    "pipeline_scaling",
    "plan_queue_hops",
]
