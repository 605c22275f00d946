"""Unit + property tests for the DSWP partitioner."""

import dataclasses
from typing import Dict, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.dswp.graph import condense
from repro.dswp.ir import Loop, Op, OpKind
from repro.dswp.partition import (
    Partition,
    PartitionError,
    build_dependence_graph,
    partition_loop,
    plan_queue_hops,
)


def crossing(p):
    """Values crossing a two-stage partition's boundary, in body order."""
    return [value for value, _ in plan_queue_hops(p)]


def chain_loop(n=6):
    """a0 -> a1 -> ... -> a(n-1), no recurrences."""
    body = [Op("a0", OpKind.IALU)]
    for i in range(1, n):
        body.append(Op(f"a{i}", OpKind.IALU, deps=(f"a{i-1}",)))
    return Loop("chain", body)


def producer_consumer_loop():
    """A load feeding a loop-carried reduction: the canonical DSWP shape."""
    return Loop(
        "pc",
        [
            Op("ld", OpKind.IALU),  # stands in for a streaming load
            Op("scale", OpKind.IALU, deps=("ld",)),
            Op("acc", OpKind.FALU, deps=("scale",), carried_deps=("acc",)),
            Op("out", OpKind.IALU, deps=("acc",)),
        ],
    )


class TestDependenceGraph:
    def test_intra_edges(self):
        g = build_dependence_graph(chain_loop(3))
        assert g.has_edge("a0", "a1")
        assert g.has_edge("a1", "a2")

    def test_carried_edge_closes_cycle(self):
        loop = Loop(
            "rec",
            [
                Op("x", OpKind.IALU, carried_deps=("y",)),
                Op("y", OpKind.IALU, deps=("x",)),
            ],
        )
        g = build_dependence_graph(loop)
        assert g.has_edge("x", "y") and g.has_edge("y", "x")


class TestPartitioning:
    def test_chain_splits_roughly_in_half(self):
        p = partition_loop(chain_loop(6))
        w0, w1 = p.stage_weight(0), p.stage_weight(1)
        assert abs(w0 - w1) <= 2.0
        assert len(crossing(p)) == 1  # a chain crosses once

    def test_producer_consumer_shape(self):
        p = partition_loop(producer_consumer_loop())
        # The reduction recurrence must be in stage 1 as a unit.
        assert p.stage_of["acc"] == 1
        assert p.stage_of["out"] == 1
        assert p.stage_of["ld"] == 0

    def test_fully_recurrent_loop_rejected(self):
        loop = Loop(
            "knot",
            [
                Op("x", OpKind.IALU, carried_deps=("y",)),
                Op("y", OpKind.IALU, deps=("x",)),
            ],
        )
        with pytest.raises(PartitionError):
            partition_loop(loop)

    def test_validate_catches_backward_dep(self):
        loop = chain_loop(3)
        bad = Partition(loop=loop, stage_of={"a0": 1, "a1": 0, "a2": 1})
        with pytest.raises(PartitionError):
            bad.validate()

    def test_crossing_values_deduplicated(self):
        """A value used by many stage-1 ops crosses exactly once."""
        loop = Loop(
            "fan",
            [
                Op("src", OpKind.IALU),
                Op("u1", OpKind.FALU, deps=("src",), carried_deps=("u1",)),
                Op("u2", OpKind.FALU, deps=("src",), carried_deps=("u2",)),
                Op("u3", OpKind.FALU, deps=("src",), carried_deps=("u3",)),
            ],
        )
        p = partition_loop(loop)
        assert crossing(p).count("src") == 1

    def test_comm_cost_discourages_wide_cuts(self):
        """A high comm weight pushes the cut to a narrow point."""
        loop = Loop(
            "wide",
            [
                Op("a", OpKind.IALU),
                Op("b1", OpKind.IALU, deps=("a",)),
                Op("b2", OpKind.IALU, deps=("a",)),
                Op("join", OpKind.IALU, deps=("b1", "b2")),
                Op("t1", OpKind.FALU, deps=("join",), carried_deps=("t1",)),
                Op("t2", OpKind.FALU, deps=("t1",), carried_deps=("t2",)),
            ],
        )
        narrow = partition_loop(loop, comm_cost_weight=10.0)
        assert len(crossing(narrow)) == 1

    def test_single_op_loop_rejected(self):
        """One op is one SCC: nothing to pipeline."""
        loop = Loop("one", [Op("only", OpKind.IALU, carried_deps=("only",))])
        with pytest.raises(PartitionError, match="single recurrence"):
            partition_loop(loop)

    def test_all_ops_in_one_scc_rejected(self):
        """A loop-spanning recurrence collapses the condensation to one node."""
        loop = Loop(
            "ring",
            [
                Op("x", OpKind.IALU, carried_deps=("z",)),
                Op("y", OpKind.FALU, deps=("x",)),
                Op("z", OpKind.IALU, deps=("y",)),
            ],
        )
        with pytest.raises(PartitionError, match="single recurrence"):
            partition_loop(loop)

    def test_comm_weight_zero_picks_most_balanced_cut(self):
        """With free communication only the bottleneck weight matters."""
        loop = Loop(
            "diamond",
            [
                Op("src", OpKind.IALU),
                Op("m1", OpKind.IALU, deps=("src",)),
                Op("m2", OpKind.IALU, deps=("src",)),
                Op("m3", OpKind.IALU, deps=("src",)),
                Op("m4", OpKind.IALU, deps=("src",)),
                Op("sink", OpKind.FALU, deps=("m1", "m2", "m3", "m4"),
                   carried_deps=("sink",)),
            ],
        )
        p = partition_loop(loop, comm_cost_weight=0.0)
        assert abs(p.stage_weight(0) - p.stage_weight(1)) <= 1.0
        # The balanced cut is wide — several middles cross to the sink.
        assert len(crossing(p)) > 1

    def test_comm_weight_dominant_picks_narrowest_cut(self):
        """A huge comm weight accepts imbalance to cross a single value."""
        loop = Loop(
            "diamond",
            [
                Op("src", OpKind.IALU),
                Op("m1", OpKind.IALU, deps=("src",)),
                Op("m2", OpKind.IALU, deps=("src",)),
                Op("m3", OpKind.IALU, deps=("src",)),
                Op("m4", OpKind.IALU, deps=("src",)),
                Op("sink", OpKind.FALU, deps=("m1", "m2", "m3", "m4"),
                   carried_deps=("sink",)),
            ],
        )
        p = partition_loop(loop, comm_cost_weight=1000.0)
        assert crossing(p) == ["src"]

    def test_comm_ops_per_iteration_counts_repeat(self):
        loop = Loop(
            "rep",
            [
                Op("src", OpKind.IALU, repeat=2),
                Op("use", OpKind.FALU, deps=("src",), carried_deps=("use",)),
            ],
        )
        p = partition_loop(loop)
        assert p.comm_ops_per_iteration() == 2


@st.composite
def random_loops(draw):
    """Random well-formed loops: ops with only-backward intra deps."""
    n = draw(st.integers(2, 8))
    body = []
    for i in range(n):
        kind = draw(st.sampled_from([OpKind.IALU, OpKind.FALU]))
        deps = ()
        if i > 0:
            deps = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(0, i - 1), max_size=min(2, i)
                        )
                    )
                )
            )
        carried = ()
        if draw(st.booleans()):
            carried = (i,)  # self-recurrence
        body.append(
            Op(
                f"op{i}",
                kind,
                deps=tuple(f"op{d}" for d in deps),
                carried_deps=tuple(f"op{c}" for c in carried),
            )
        )
    return Loop("rand", body)


class TestPartitionProperties:
    @given(loop=random_loops())
    @settings(max_examples=60, deadline=None)
    def test_partitions_always_valid(self, loop):
        """Every produced partition satisfies the DSWP acyclicity invariant."""
        try:
            p = partition_loop(loop)
        except PartitionError:
            return  # single-SCC loops are legitimately rejected
        p.validate()
        # Both stages non-empty.
        assert p.ops_in_stage(0) and p.ops_in_stage(1)
        # Every queue carries a value from stage 0 to stage 1.
        assert all(src == 0 for _, src in plan_queue_hops(p))
        for v in crossing(p):
            assert p.stage_of[v] == 0

    @given(loop=random_loops())
    @settings(max_examples=40, deadline=None)
    def test_weights_partition_total(self, loop):
        try:
            p = partition_loop(loop)
        except PartitionError:
            return
        assert p.stage_weight(0) + p.stage_weight(1) == pytest.approx(
            loop.total_weight()
        )


# ----------------------------------------------------------------------
# The shared cost term against the two cost walks it replaced
# ----------------------------------------------------------------------


def _crossing_values(
    loop: Loop, op_to_scc: Dict[str, int], stage0_sccs: Set[int]
) -> Set[str]:
    """Values defined in stage 0 and used in stage 1 (deduplicated)."""
    crossing: Set[str] = set()
    for op in loop.body:
        if op_to_scc[op.op_id] in stage0_sccs:
            continue
        for dep in op.deps + op.carried_deps:
            if op_to_scc[dep] in stage0_sccs:
                crossing.add(dep)
    return crossing


def _hop_count(loop: Loop, stage_of: Dict[str, int]) -> int:
    """Queue items moved per iteration, counting one per boundary crossed."""
    last_use: Dict[str, int] = {}
    for op in loop.body:
        for dep in op.deps + op.carried_deps:
            if stage_of[dep] < stage_of[op.op_id]:
                last_use[dep] = max(
                    last_use.get(dep, 0), stage_of[op.op_id]
                )
    return sum(
        loop.op(v).repeat * (last - stage_of[v]) for v, last in last_use.items()
    )


@st.composite
def repeated_loops(draw):
    """A ``random_loops`` loop with each op's ``repeat`` drawn from 1-3."""
    loop = draw(random_loops())
    body = [dataclasses.replace(op, repeat=draw(st.integers(1, 3))) for op in loop.body]
    return Loop(loop.name, body)


class TestSharedCommCost:
    """Both partitioners score with ``comm_ops_per_iteration``.  Equal to the
    two-stage search's crossing count and the K-stage search's hop count on
    every stage map (valid or not), it leaves both searches' scores — and so
    their partitions — as they were."""

    @given(loop=repeated_loops(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_two_stages_equal_the_crossing_count(self, loop, data):
        _, op_to_scc, sccs = condense(build_dependence_graph(loop))
        stage0 = data.draw(st.sets(st.sampled_from(range(len(sccs)))))
        stage_of = {op.op_id: 0 if op_to_scc[op.op_id] in stage0 else 1 for op in loop.body}
        old = sum(loop.op(v).repeat for v in _crossing_values(loop, op_to_scc, stage0))
        assert Partition(loop, stage_of).comm_ops_per_iteration() == old

    @given(loop=repeated_loops(), k=st.integers(2, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_k_stages_equal_the_hop_count(self, loop, k, data):
        stage_of = {
            op.op_id: data.draw(st.integers(0, k - 1), label=op.op_id) for op in loop.body
        }
        p = Partition(loop, stage_of)
        assert p.comm_ops_per_iteration() == _hop_count(loop, stage_of)
        # The queue plan moves exactly the items the cost counts.
        hops = plan_queue_hops(p)
        assert sum(loop.op(value).repeat for value, _ in hops) == _hop_count(loop, stage_of)
        assert sorted(hops.values()) == list(range(len(hops)))
