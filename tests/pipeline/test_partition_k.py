"""Unit + property tests for the K-stage partitioner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dswp.ir import Loop, Op, OpKind
from repro.dswp.partition import PartitionError, partition_loop_k, plan_queue_hops


def chain_loop(n=8):
    body = [Op("a0", OpKind.IALU)]
    for i in range(1, n):
        body.append(Op(f"a{i}", OpKind.IALU, deps=(f"a{i-1}",)))
    return Loop("chain", body)


class TestPartitionLoopK:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_chain_splits_into_k_contiguous_stages(self, k):
        p = partition_loop_k(chain_loop(8), k)
        assert p.n_stages == k
        p.validate()
        # Every stage non-empty, and stages follow body order on a chain.
        for stage in range(k):
            assert p.ops_in_stage(stage)
        stages = [p.stage_of[f"a{i}"] for i in range(8)]
        assert stages == sorted(stages)

    def test_stage_weights_partition_total(self):
        loop = chain_loop(8)
        p = partition_loop_k(loop, 4)
        assert sum(p.stage_weight(s) for s in range(4)) == pytest.approx(
            loop.total_weight()
        )

    def test_too_few_sccs_rejected(self):
        with pytest.raises(PartitionError, match="3 SCC"):
            partition_loop_k(chain_loop(3), 4)

    def test_fully_recurrent_loop_rejected(self):
        loop = Loop(
            "knot",
            [
                Op("x", OpKind.IALU, carried_deps=("y",)),
                Op("y", OpKind.IALU, deps=("x",)),
            ],
        )
        with pytest.raises(PartitionError):
            partition_loop_k(loop, 2)

    def test_fewer_than_two_stages_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            partition_loop_k(chain_loop(4), 1)

    def test_recurrence_stays_within_one_stage(self):
        loop = Loop(
            "rec",
            [
                Op("ld", OpKind.IALU),  # stands in for a streaming load
                Op("scale", OpKind.IALU, deps=("ld",)),
                Op("acc", OpKind.FALU, deps=("scale",), carried_deps=("acc",)),
                Op("out", OpKind.IALU, deps=("acc",)),
            ],
        )
        p = partition_loop_k(loop, 3)
        # acc's self-recurrence is one SCC; out depends on it, so the DSWP
        # invariant puts out at or after acc's stage.
        assert p.stage_of["out"] >= p.stage_of["acc"]
        p.validate()

    def test_comm_weight_zero_balances(self):
        """With free communication the split minimizes the bottleneck."""
        p = partition_loop_k(chain_loop(8), 4, comm_cost_weight=0.0)
        weights = [p.stage_weight(s) for s in range(4)]
        assert max(weights) == pytest.approx(2.0)  # 8 unit ops over 4 stages

    def test_comm_weight_dominant_minimizes_hops(self):
        """A huge comm weight picks the narrowest boundaries available."""
        # src fans out to four middles that a heavy sink reduces: the only
        # one-value boundary is right after src.
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
        p = partition_loop_k(loop, 2, comm_cost_weight=1000.0)
        assert plan_queue_hops(p) == {("src", 0): 0}
        assert p.stage_of["src"] == 0
        assert all(p.stage_of[m] == 1 for m in ("m1", "m2", "m3", "m4"))

    def test_deterministic(self):
        a = partition_loop_k(chain_loop(10), 5)
        b = partition_loop_k(chain_loop(10), 5)
        assert a.stage_of == b.stage_of
        assert plan_queue_hops(a) == plan_queue_hops(b)


@st.composite
def random_loops(draw):
    n = draw(st.integers(3, 10))
    body = []
    for i in range(n):
        kind = draw(st.sampled_from([OpKind.IALU, OpKind.FALU]))
        deps = ()
        if i > 0:
            deps = tuple(
                sorted(draw(st.sets(st.integers(0, i - 1), max_size=min(2, i))))
            )
        carried = (i,) if draw(st.booleans()) else ()
        body.append(
            Op(
                f"op{i}",
                kind,
                deps=tuple(f"op{d}" for d in deps),
                carried_deps=tuple(f"op{c}" for c in carried),
            )
        )
    return Loop("rand", body)


class TestPartitionKProperties:
    @given(loop=random_loops(), k=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_partitions_always_valid(self, loop, k):
        try:
            p = partition_loop_k(loop, k)
        except PartitionError:
            return  # legitimately too few SCCs for k stages
        p.validate()
        assert p.n_stages == k
        for stage in range(k):
            assert p.ops_in_stage(stage)
        assert sum(p.stage_weight(s) for s in range(k)) == pytest.approx(
            loop.total_weight()
        )
