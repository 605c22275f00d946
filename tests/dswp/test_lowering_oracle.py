"""Template lowering ≡ per-op lowering, instruction for instruction.

The code generator lowers each stage's loop body once per rotation residue
and replays that template every iteration.  The reference here is the
original emitter, kept verbatim: it lowers every IR op afresh for every
dynamic instance (``_lower_op`` per instruction).  Both must yield the same
``(kind, dest, srcs, addr, queue, tag, is_overhead)`` sequence for every
suite benchmark — single-threaded, two-stage (against the original
two-stage emitter, with its crossing-order queue numbering) and K=3 — at
hoist depths 0–3.
"""

from typing import Dict, Iterator

import pytest

from repro.dswp.codegen import (
    INDUCTION_REG,
    _REG_STRIDE,
    hoistable_ops,
    lower_pipeline,
    lower_single_threaded,
)
from repro.dswp.ir import Loop, Op, OpKind, Sequential
from repro.dswp.partition import Partition, PartitionError, plan_queue_hops
from repro.sim import isa
from repro.sim.isa import DynInst
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS, build_loop, build_partition

#: Benchmarks lowered through the IR code generators (bzip2 is hand-written).
IR_BENCHMARKS = [b for b in BENCHMARK_ORDER if BENCHMARKS[b].partition_mode != "nested"]

HOIST_DEPTHS = (0, 1, 2, 3)

#: A trip count shorter than the deepest hoist window, and a longer one that
#: wraps every rotation residue several times.
TRIPS = (2, 13)


class _PerOpEmitter:
    """The original emitter: every dynamic instruction lowered from its op."""

    def __init__(self, loop, stage_of, stage, queue_of, hoist_depth):
        self.loop = loop
        self.stage_of = stage_of
        self.stage = stage
        self.queue_of = queue_of
        self.hoist_depth = hoist_depth
        self.base_reg = {op.op_id: i * _REG_STRIDE for i, op in enumerate(loop.body)}
        self.rotated = {
            op_id
            for op_id in hoistable_ops(loop)
            if stage_of[op_id] == stage and hoist_depth > 0
        }
        self.crossing_in = [v for v in queue_of if stage_of[v] == 0 and stage == 1]

    def reg(self, op_id, iteration):
        base = self.base_reg[op_id]
        if op_id in self.rotated:
            return base + iteration % (self.hoist_depth + 1)
        return base

    def _mine(self, op):
        return self.stage_of[op.op_id] == self.stage

    def _lower_op(self, op: Op, iteration: int, addr_stream) -> Iterator[DynInst]:
        dest = self.reg(op.op_id, iteration)
        srcs = tuple(self.reg(d, iteration) for d in op.deps + op.carried_deps)
        for _ in range(op.repeat):
            if op.kind is OpKind.IALU:
                yield DynInst(isa.InstrKind.IALU, dest=dest, srcs=srcs, tag=op.op_id)
            elif op.kind is OpKind.FALU:
                yield DynInst(isa.InstrKind.FALU, dest=dest, srcs=srcs, tag=op.op_id)
            elif op.kind is OpKind.BRANCH:
                yield DynInst(isa.InstrKind.BRANCH, srcs=srcs, tag=op.op_id)
            elif op.kind is OpKind.LOAD:
                yield DynInst(
                    isa.InstrKind.LOAD,
                    dest=dest,
                    srcs=srcs,
                    addr=next(addr_stream),
                    tag=op.op_id,
                )
            elif op.kind is OpKind.STORE:
                yield DynInst(
                    isa.InstrKind.STORE, srcs=srcs, addr=next(addr_stream), tag=op.op_id
                )

    def _consumes(self, iteration):
        for value in self.crossing_in:
            op = self.loop.op(value)
            for _ in range(op.repeat):
                yield isa.consume(self.reg(value, iteration), self.queue_of[value])

    def _produces_after(self, op, iteration):
        if self.stage == 0 and op.op_id in self.queue_of and self.stage_of[op.op_id] == 0:
            for _ in range(op.repeat):
                yield isa.produce(self.queue_of[op.op_id], self.reg(op.op_id, iteration))

    def instructions(self):
        loop = self.loop
        trip = loop.trip_count
        addr_streams = {
            op.op_id: op.addr.stream()
            for op in loop.body
            if op.addr is not None and self._mine(op)
        }
        k = self.hoist_depth
        for i in range(trip):
            if k > 0:
                if i == 0:
                    hoist_targets = range(0, min(k + 1, trip))
                elif i + k < trip:
                    hoist_targets = range(i + k, i + k + 1)
                else:
                    hoist_targets = range(0, 0)
                for target in hoist_targets:
                    for op in loop.body:
                        if op.op_id in self.rotated:
                            yield from self._lower_op(op, target, addr_streams[op.op_id])
            yield from self._consumes(i)
            for op in loop.body:
                if self._mine(op) and op.op_id not in self.rotated:
                    yield from self._lower_op(op, i, addr_streams.get(op.op_id))
                yield from self._produces_after(op, i)
            yield DynInst(
                isa.InstrKind.IALU, dest=INDUCTION_REG, srcs=(INDUCTION_REG,), tag="ind"
            )
            yield DynInst(isa.InstrKind.BRANCH, srcs=(INDUCTION_REG,), tag="loopbr")


class _PerOpPipelineEmitter(_PerOpEmitter):
    """The original K-stage emitter's relay hooks over the per-op skeleton."""

    def __init__(self, loop, stage_of, stage, hops, hoist_depth):
        super().__init__(loop, stage_of, stage, {}, hoist_depth)
        self.hops = hops
        self.consume_from: Dict[str, int] = {}
        self.relay_to: Dict[str, int] = {}
        for op in loop.body:
            incoming = hops.get((op.op_id, stage - 1))
            if incoming is None:
                continue
            self.consume_from[op.op_id] = incoming
            onward = hops.get((op.op_id, stage))
            if onward is not None:
                self.relay_to[op.op_id] = onward

    def _consumes(self, iteration):
        for value, qid in self.consume_from.items():
            op = self.loop.op(value)
            for _ in range(op.repeat):
                yield isa.consume(self.reg(value, iteration), qid)
            onward = self.relay_to.get(value)
            if onward is not None:
                for _ in range(op.repeat):
                    yield isa.produce(onward, self.reg(value, iteration))

    def _produces_after(self, op, iteration):
        qid = self.hops.get((op.op_id, self.stage))
        if qid is not None and self.stage_of[op.op_id] == self.stage:
            for _ in range(op.repeat):
                yield isa.produce(qid, self.reg(op.op_id, iteration))


def _crossing_queues(p: Partition) -> Dict[str, int]:
    """The original two-stage queue numbering: one queue per value defined
    in stage 0 and used in stage 1, numbered in body order."""
    used = {
        dep
        for op in p.loop.body
        if p.stage_of[op.op_id] == 1
        for dep in op.deps + op.carried_deps
    }
    crossing = [op.op_id for op in p.loop.body if op.op_id in used and p.stage_of[op.op_id] == 0]
    return {value: i for i, value in enumerate(crossing)}


def _tuples(stream):
    return [
        (i.kind, i.dest, i.srcs, i.addr, i.queue, i.tag, i.is_overhead) for i in stream
    ]


def _assert_same(program, oracles):
    assert program.n_threads == len(oracles)
    for thread, oracle in zip(program.threads, oracles):
        expected = _tuples(oracle.instructions())
        assert expected, thread.name
        assert _tuples(thread.instructions()) == expected, thread.name


@pytest.mark.parametrize("trips", TRIPS)
@pytest.mark.parametrize("hoist", HOIST_DEPTHS)
@pytest.mark.parametrize("bench", IR_BENCHMARKS)
class TestTemplateMatchesPerOpLowering:
    def test_partitioned(self, bench, hoist, trips):
        p = build_partition(bench, trips)
        queue_of = _crossing_queues(p)
        oracles = [
            _PerOpEmitter(p.loop, p.stage_of, stage, queue_of, hoist) for stage in (0, 1)
        ]
        _assert_same(lower_pipeline(p, hoist_depth=hoist), oracles)

    def test_single_threaded(self, bench, hoist, trips):
        loop = build_loop(bench, trips)
        stage_of = {op.op_id: 0 for op in loop.body}
        oracle = _PerOpEmitter(loop, stage_of, 0, {}, hoist)
        _assert_same(lower_single_threaded(loop, hoist_depth=hoist), [oracle])

    @pytest.mark.parametrize("n_stages", [2, 3])
    def test_pipeline(self, bench, hoist, trips, n_stages):
        try:
            p = build_partition(bench, trips, n_stages)
        except PartitionError:
            pytest.skip(f"{bench} has no {n_stages}-stage partition")
        hops = plan_queue_hops(p)
        oracles = [
            _PerOpPipelineEmitter(p.loop, p.stage_of, stage, hops, hoist)
            for stage in range(n_stages)
        ]
        _assert_same(lower_pipeline(p, hoist_depth=hoist), oracles)


def test_repeated_ops_and_every_op_kind():
    """A loop with repeat > 1 on every op kind, a branch, and a gather."""
    loop = Loop(
        "mix",
        [
            Op("ld", OpKind.LOAD, addr=Sequential(0x1000, stride=8), repeat=2),
            Op("a", OpKind.IALU, deps=("ld",), repeat=3),
            Op("g", OpKind.LOAD, deps=("a",), addr=Sequential(0x9000, stride=64)),
            Op("f", OpKind.FALU, deps=("g",), carried_deps=("f",), repeat=2),
            Op("br", OpKind.BRANCH, deps=("f",)),
            Op("st", OpKind.STORE, deps=("f",), addr=Sequential(0x8000), repeat=2),
        ],
        trip_count=11,
    )
    stage_of = {"ld": 0, "a": 0, "g": 1, "f": 1, "br": 1, "st": 1}
    p = Partition(loop=loop, stage_of=stage_of)
    p.validate()
    queue_of = _crossing_queues(p)
    assert queue_of == {"a": 0}
    for hoist in HOIST_DEPTHS:
        oracles = [_PerOpEmitter(loop, stage_of, s, queue_of, hoist) for s in (0, 1)]
        _assert_same(lower_pipeline(p, hoist_depth=hoist), oracles)


def test_non_memory_instructions_carry_their_latency():
    """Templates fix the execution latency at build time: the core reads it
    off the instruction instead of looking the kind up per instance."""
    program = lower_pipeline(build_partition("wc", 6))
    for thread in program.threads:
        for inst in thread.instructions():
            if inst.kind in isa.EXEC_LATENCY:
                assert inst.latency == isa.EXEC_LATENCY[inst.kind]
            assert inst.exec_latency() == isa.DynInst(inst.kind).exec_latency()
