"""DSWP partitioning (Ottoni et al., MICRO 2005) and the queue plan.

Decoupled Software Pipelining splits a loop into pipeline-stage threads such
that all cross-thread dependences flow in one direction.  The algorithm:

1. Build the loop's dependence graph (intra-iteration and loop-carried
   register dependences; the loop back-edge closes recurrences).
2. Compute strongly connected components — each recurrence must live
   entirely within one stage, otherwise a cross-thread dependence cycle
   would serialize the pipeline.
3. Condense to the DAG of SCCs and choose the stage split that balances
   estimated stage weights while penalizing communication (each queue item
   moved costs a produce/consume pair per iteration — COMM-OP delay, the
   quantity the paper's mechanisms fight over).

Two searches share that cost term.  :func:`partition_loop` produces the
two-stage partitions the paper evaluates (its machine is a dual-core CMP);
the cut search is exact over all predecessor-closed cuts.
:func:`partition_loop_k` chain-decomposes the condensation into K stages
for the N-core scalability study: fix one deterministic topological order
of the SCCs and split it into K contiguous, non-empty segments.  Every DAG
edge points forward in a topological order, so any such split assigns each
dependence a non-decreasing stage.

Queues connect *adjacent* stages only: a value defined in stage ``i`` and
last used in stage ``j`` travels the hop chain ``i -> i+1 -> ... -> j``,
one architectural queue per hop.  :func:`plan_queue_hops` assigns those
queues, and :meth:`Partition.comm_ops_per_iteration` counts the same hops —
at two stages, one per crossing value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from repro.dswp.graph import DiGraph, condense, topological_order
from repro.dswp.ir import Loop, Op


class PartitionError(ValueError):
    """The loop cannot be split into a non-trivial pipeline."""


#: Condensations at or below this many SCCs get an exact search (the
#: two-stage cut search and the K-stage boundary search alike).
_EXHAUSTIVE_SCC_LIMIT = 14

#: A hop key: (value op_id, source stage).  The queue carries the value from
#: ``source stage`` to ``source stage + 1``.
Hop = Tuple[str, int]


@dataclass(frozen=True)
class Partition:
    """A pipeline-stage DSWP partition of one loop (any stage count).

    Attributes:
        loop: The partitioned loop.
        stage_of: op_id -> stage index; stage 0 feeds stage 1 feeds stage 2
            and so on (the paper's dual-core partitions use stages {0, 1}).
    """

    loop: Loop
    stage_of: Dict[str, int]

    @property
    def n_stages(self) -> int:
        """Number of pipeline stages (threads) this partition emits."""
        return 1 + max(self.stage_of.values(), default=0)

    def ops_in_stage(self, stage: int) -> List[Op]:
        return [op for op in self.loop.body if self.stage_of[op.op_id] == stage]

    def stage_weight(self, stage: int) -> float:
        return sum(op.est_weight for op in self.ops_in_stage(stage))

    def comm_ops_per_iteration(self) -> int:
        """Queue items moved per loop iteration, relays included: one
        produce/consume pair per value instance per hop it travels."""
        return _comm_ops(self.loop, self.stage_of)

    def validate(self) -> None:
        """Check the DSWP invariant: no backward (stage j -> i, j > i) dependence.

        Any dependence from a later stage back into an earlier one would
        close a cross-thread cycle and serialize the pipeline; the check is
        stage-count-agnostic, so the same invariant covers the paper's
        two-stage partitions and the K-stage ones.
        """
        for op in self.loop.body:
            for dep in op.deps + op.carried_deps:
                if self.stage_of[dep] > self.stage_of[op.op_id]:
                    raise PartitionError(
                        f"backward dependence {dep!r} (stage "
                        f"{self.stage_of[dep]}) -> {op.op_id!r} (stage "
                        f"{self.stage_of[op.op_id]})"
                    )


def _last_use(loop: Loop, stage_of: Dict[str, int]) -> Dict[str, int]:
    """Value -> the last stage using it, for values used past their stage."""
    last_use: Dict[str, int] = {}
    for op in loop.body:
        stage = stage_of[op.op_id]
        for dep in op.deps + op.carried_deps:
            if stage_of[dep] < stage:
                last_use[dep] = max(last_use.get(dep, 0), stage)
    return last_use


def _comm_ops(loop: Loop, stage_of: Dict[str, int]) -> int:
    """Queue items moved per iteration: one per value instance per hop."""
    last_use = _last_use(loop, stage_of)
    return sum(
        op.repeat * (last_use[op.op_id] - stage_of[op.op_id])
        for op in loop.body
        if op.op_id in last_use
    )


def plan_queue_hops(partition: Partition) -> Dict[Hop, int]:
    """Assign one architectural queue id to every (value, source-stage) hop.

    Ids are dense from 0, allocated in body order of the defining op and
    then in hop order; at two stages that is one queue per crossing value,
    in body order.
    """
    stage_of = partition.stage_of
    last_use = _last_use(partition.loop, stage_of)
    hops: Dict[Hop, int] = {}
    for op in partition.loop.body:
        value = op.op_id
        if value in last_use:
            for src in range(stage_of[value], last_use[value]):
                hops[(value, src)] = len(hops)
    return hops


def build_dependence_graph(loop: Loop) -> DiGraph:
    """The loop's register dependence graph, back-edges included."""
    graph = DiGraph()
    for op in loop.body:
        graph.add_node(op.op_id)
    for op in loop.body:
        for dep in op.deps:
            graph.add_edge(dep, op.op_id)
        for dep in op.carried_deps:
            # A loop-carried dependence is an edge from the def to the use
            # *and* closes a cycle when the use (transitively) feeds the def.
            graph.add_edge(dep, op.op_id)
    return graph


def partition_loop(loop: Loop, comm_cost_weight: float = 1.0) -> Partition:
    """Split ``loop`` into a two-stage pipeline.

    Args:
        comm_cost_weight: Estimated cycles charged per crossing value when
            scoring cuts (models per-iteration COMM-OP delay).

    Raises:
        PartitionError: When every op falls into a single SCC (fully
            recurrent loop) or no non-trivial predecessor-closed cut exists.
    """
    graph = build_dependence_graph(loop)
    dag, op_to_scc, sccs = condense(graph)
    if len(sccs) < 2:
        raise PartitionError(
            f"loop {loop.name!r} is a single recurrence; DSWP cannot pipeline it"
        )
    order = topological_order(dag)
    scc_weight = {
        scc_id: sum(loop.op(op_id).est_weight for op_id in members)
        for scc_id, members in enumerate(sccs)
    }
    total = sum(scc_weight.values())

    def stage_map(stage0_sccs: Set[int]) -> Dict[str, int]:
        return {
            op.op_id: 0 if op_to_scc[op.op_id] in stage0_sccs else 1
            for op in loop.body
        }

    best_cut, best_score = None, (float("inf"), float("inf"))

    def consider(candidate: Set[int]) -> None:
        nonlocal best_cut, best_score
        weight = sum(scc_weight[s] for s in candidate)
        imbalance = max(weight, total - weight)
        comm = _comm_ops(loop, stage_map(candidate))
        # Primary: estimated bottleneck stage time + per-iteration COMM-OP
        # cost.  Tie-break: prefer the better-balanced cut (a balanced
        # pipeline tolerates latency variance better).
        score = (imbalance + comm_cost_weight * comm, imbalance)
        if score < best_score:
            best_score = score
            best_cut = frozenset(candidate)

    if len(order) <= _EXHAUSTIVE_SCC_LIMIT:
        # Small condensations (every loop in the suite): enumerate every
        # predecessor-closed proper subset exactly.
        preds = {s: dag.predecessors(s) for s in order}
        for mask in range(1, (1 << len(order)) - 1):
            candidate = {order[i] for i in range(len(order)) if mask >> i & 1}
            if all(preds[s] <= candidate for s in candidate):
                consider(candidate)
    else:
        # Large condensations: every non-empty proper prefix of a
        # topological order is predecessor-closed.
        prefix: Set[int] = set()
        for scc_id in order[:-1]:
            prefix.add(scc_id)
            consider(prefix)
    if best_cut is None:
        raise PartitionError(f"no valid cut for loop {loop.name!r}")

    partition = Partition(loop=loop, stage_of=stage_map(best_cut))
    partition.validate()
    return partition


def _greedy_boundaries(weights: Sequence[float], n_stages: int) -> Tuple[int, ...]:
    """Weight-quantile split for condensations too large to enumerate."""
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    boundaries: List[int] = []
    for stage in range(1, n_stages):
        target = total * stage / n_stages
        cut = bisect_right(cumulative, target)
        # Keep every segment non-empty: each boundary must advance past the
        # previous one and leave room for the remaining stages.
        low = (boundaries[-1] if boundaries else 0) + 1
        high = len(weights) - (n_stages - stage)
        boundaries.append(min(max(cut, low), high))
    return tuple(boundaries)


def partition_loop_k(
    loop: Loop, n_stages: int, comm_cost_weight: float = 1.0
) -> Partition:
    """Split ``loop`` into a ``n_stages``-stage pipeline.

    The boundary search is exact over all ``C(n-1, K-1)`` contiguous splits
    of the SCC order for condensations up to :data:`_EXHAUSTIVE_SCC_LIMIT`
    SCCs (every loop in the suite); larger ones get a greedy weight-quantile
    split.

    Args:
        n_stages: Pipeline stage (thread) count; must be at least 2.
        comm_cost_weight: Estimated cycles charged per queue item moved per
            iteration when scoring splits (one charge per boundary a value
            crosses — relays through middle stages are paid for).

    Returns a :class:`Partition` whose ``stage_of`` ranges over
    ``0..n_stages-1`` with every stage non-empty.

    Raises:
        PartitionError: When the condensation has fewer than ``n_stages``
            SCCs (the recurrences cannot fill that many stages).
        ValueError: When ``n_stages < 2``.
    """
    if n_stages < 2:
        raise ValueError(f"n_stages must be at least 2, got {n_stages}")
    graph = build_dependence_graph(loop)
    dag, op_to_scc, sccs = condense(graph)
    if len(sccs) < n_stages:
        raise PartitionError(
            f"loop {loop.name!r} condenses to {len(sccs)} SCC(s); "
            f"cannot form {n_stages} non-empty pipeline stages"
        )
    order = topological_order(dag)
    n = len(order)
    weights = [
        sum(loop.op(op_id).est_weight for op_id in sccs[scc_id])
        for scc_id in order
    ]
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    position = {scc_id: i for i, scc_id in enumerate(order)}
    op_pos = {op.op_id: position[op_to_scc[op.op_id]] for op in loop.body}

    def stage_map(boundaries: Tuple[int, ...]) -> Dict[str, int]:
        return {
            op_id: bisect_right(boundaries, pos) for op_id, pos in op_pos.items()
        }

    best_boundaries, best_score = None, (float("inf"), float("inf"), ())

    def consider(boundaries: Tuple[int, ...]) -> None:
        nonlocal best_boundaries, best_score
        edges = (0,) + boundaries + (n,)
        bottleneck = max(
            prefix[edges[s + 1]] - prefix[edges[s]] for s in range(n_stages)
        )
        comm = _comm_ops(loop, stage_map(boundaries))
        # Primary: estimated bottleneck stage time + per-iteration COMM-OP
        # cost (as in the two-stage search).  Tie-breaks: the flatter
        # pipeline, then the boundary tuple for determinism.
        score = (bottleneck + comm_cost_weight * comm, bottleneck, boundaries)
        if score < best_score:
            best_score = score
            best_boundaries = boundaries

    if n <= _EXHAUSTIVE_SCC_LIMIT:
        for boundaries in combinations(range(1, n), n_stages - 1):
            consider(boundaries)
    else:
        consider(_greedy_boundaries(weights, n_stages))
    assert best_boundaries is not None  # n >= n_stages guarantees a split
    partition = Partition(loop=loop, stage_of=stage_map(best_boundaries))
    partition.validate()
    return partition
