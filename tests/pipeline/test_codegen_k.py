"""K-stage code generation: queue topology and relays."""

import pytest

from repro.core.design_points import get_design_point, with_n_cores
from repro.dswp.codegen import lower_pipeline
from repro.dswp.ir import Loop, Op, OpKind
from repro.dswp.partition import Partition, partition_loop_k, plan_queue_hops
from repro.sim.isa import InstrKind
from repro.sim.machine import Machine
from repro.workloads.suite import BENCHMARKS, build_loop, build_partition


def span_partition():
    """a (stage 0) feeds b (stage 1) and c (stage 2): a travels two hops."""
    loop = Loop(
        "span",
        [
            Op("a", OpKind.IALU),
            Op("b", OpKind.FALU, deps=("a",), carried_deps=("b",)),
            Op("c", OpKind.FALU, deps=("a", "b"), carried_deps=("c",)),
        ],
        trip_count=24,
    )
    p = Partition(loop=loop, stage_of={"a": 0, "b": 1, "c": 2})
    p.validate()
    return p


class TestQueuePlan:
    def test_one_queue_per_hop_adjacent_endpoints(self):
        p = span_partition()
        hops = plan_queue_hops(p)
        # a: hops 0->1 and 1->2; b: hop 1->2.
        assert set(hops) == {("a", 0), ("a", 1), ("b", 1)}
        assert len(set(hops.values())) == 3
        program = lower_pipeline(p)
        assert program.queue_endpoints == {
            hops[("a", 0)]: (0, 1),
            hops[("a", 1)]: (1, 2),
            hops[("b", 1)]: (1, 2),
        }

    def test_two_stage_plan_matches_crossing_value_order(self):
        """At two stages: one queue per value stage 1 uses from stage 0,
        numbered in body order."""
        for name, info in BENCHMARKS.items():
            if info.partition_mode == "nested":
                continue
            p = build_partition(name, 40)
            used = {
                dep
                for op in p.loop.body
                if p.stage_of[op.op_id] == 1
                for dep in op.deps + op.carried_deps
            }
            crossing = [
                op.op_id for op in p.loop.body if op.op_id in used and p.stage_of[op.op_id] == 0
            ]
            assert plan_queue_hops(p) == {(value, 0): i for i, value in enumerate(crossing)}, name


class TestRelayForwarding:
    def test_middle_stage_consumes_then_reproduces(self):
        p = span_partition()
        hops = plan_queue_hops(p)
        program = lower_pipeline(p)
        stage1 = list(program.threads[1].instructions())
        comm = [
            (i.kind, i.queue) for i in stage1 if i.kind in (InstrKind.CONSUME, InstrKind.PRODUCE)
        ]
        # Each iteration: consume a from hop 0, relay it into hop 1.
        first_iteration = comm[:2]
        assert first_iteration == [
            (InstrKind.CONSUME, hops[("a", 0)]),
            (InstrKind.PRODUCE, hops[("a", 1)]),
        ]
        stage2 = list(program.threads[2].instructions())
        consumed = {i.queue for i in stage2 if i.kind is InstrKind.CONSUME}
        assert consumed == {hops[("a", 1)], hops[("b", 1)]}

    @pytest.mark.parametrize(
        "point", ["EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT"]
    )
    def test_three_stage_pipeline_runs_on_every_mechanism(self, point):
        program = lower_pipeline(span_partition())
        dp = get_design_point(point)
        machine = Machine(with_n_cores(dp.build_config(), 3), mechanism=dp.mechanism)
        stats = machine.run(program)
        assert stats.cycles > 0
        # Conservation: every produced item is consumed exactly once.
        total_produces = sum(t.produces for t in stats.threads)
        total_consumes = sum(t.consumes for t in stats.threads)
        assert total_produces == total_consumes > 0
        # The middle stage both consumes and relays.
        assert stats.threads[1].produces > 0
        assert stats.threads[1].consumes > 0


class TestDeepPipelines:
    @pytest.mark.parametrize("k", [3, 4, 6, 8])
    def test_suite_kernel_runs_at_depth(self, k):
        p = partition_loop_k(build_loop("wc", 60), k)
        program = lower_pipeline(p)
        assert len(program.threads) == k
        dp = get_design_point("HEAVYWT")
        machine = Machine(with_n_cores(dp.build_config(), k), mechanism=dp.mechanism)
        stats = machine.run(program)
        assert stats.cycles > 0
        assert len(stats.threads) == k
        # consumer = the terminal stage.
        assert stats.consumer.thread_id == k - 1
