"""Lowering K-stage partitions to K-thread pipelined programs.

Queue topology
--------------

Queues connect *adjacent* stages only, mirroring how the paper's dual-core
queues connect the two cores: a value defined in stage ``i`` and last used
in stage ``j`` travels the hop chain ``i -> i+1 -> ... -> j``, one
architectural queue per hop.  Middle stages *relay*: they CONSUME the value
at the top of the iteration (the DSWP convention) and immediately re-PRODUCE
it into the next hop's queue.  Relaying keeps every queue's endpoints an
adjacent core pair, so each mechanism's per-channel machinery (flag lines,
occupancy counters, write-forward targets, dedicated-store ports) sees
exactly the traffic pattern it was built for, at any stage count.

The emitter subclasses :class:`repro.dswp.codegen._StageEmitter`, overriding
only its ``_consumes`` / ``_produces_after`` hooks; the shared skeleton
(modulo-scheduled load hoisting, body walk, replicated loop control, and the
per-rotation-residue templates it replays) plus the hop-id assignment below
make a two-stage pipeline lowered here instruction-for-instruction identical
to :func:`repro.dswp.codegen.lower_partition`'s output — the property that
keeps every existing dual-core exhibit numerically unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.dswp.codegen import DEFAULT_HOIST_DEPTH, _StageEmitter
from repro.dswp.ir import Op
from repro.dswp.partition import Partition
from repro.sim import isa
from repro.sim.isa import DynInst
from repro.sim.program import Program, ThreadProgram

#: A hop key: (value op_id, source stage).  The queue carries the value from
#: ``source stage`` to ``source stage + 1``.
Hop = Tuple[str, int]


def plan_queue_hops(partition: Partition, queue_base: int = 0) -> Dict[Hop, int]:
    """Assign one architectural queue id to every (value, source-stage) hop.

    Ids are dense from ``queue_base``, allocated in body order of the
    defining op and then in hop order — for a two-stage partition this
    degenerates to exactly the ``crossing_values``-ordered assignment of
    :func:`repro.dswp.codegen.lower_partition`.
    """
    loop = partition.loop
    stage_of = partition.stage_of
    last_use: Dict[str, int] = {}
    for op in loop.body:
        for dep in op.deps + op.carried_deps:
            if stage_of[dep] < stage_of[op.op_id]:
                last_use[dep] = max(last_use.get(dep, 0), stage_of[op.op_id])
    hops: Dict[Hop, int] = {}
    next_qid = queue_base
    for op in loop.body:
        value = op.op_id
        if value not in last_use:
            continue
        for src in range(stage_of[value], last_use[value]):
            hops[(value, src)] = next_qid
            next_qid += 1
    return hops


class _PipelineStageEmitter(_StageEmitter):
    """One pipeline stage's instruction stream, with relay forwarding."""

    def __init__(
        self,
        loop,
        stage_of: Dict[str, int],
        stage: int,
        hops: Dict[Hop, int],
        hoist_depth: int,
    ) -> None:
        super().__init__(loop, stage_of, stage, {}, hoist_depth)
        self.hops = hops
        #: value -> queue id consumed at the top of this stage's iteration
        #: (insertion order = body order of the defining op).
        self.consume_from: Dict[str, int] = {}
        #: value -> next hop's queue id, for values relayed downstream.
        self.relay_to: Dict[str, int] = {}
        for op in loop.body:
            incoming = hops.get((op.op_id, stage - 1))
            if incoming is None:
                continue
            self.consume_from[op.op_id] = incoming
            onward = hops.get((op.op_id, stage))
            if onward is not None:
                self.relay_to[op.op_id] = onward

    def _consumes(self, residue: int) -> Iterator[DynInst]:
        for value, qid in self.consume_from.items():
            op = self.loop.op(value)
            for _ in range(op.repeat):
                yield isa.consume(self.reg(value, residue), qid)
            onward = self.relay_to.get(value)
            if onward is not None:
                # Relay: forward the value to the next stage right away so
                # downstream stages see minimal extra latency per hop.
                for _ in range(op.repeat):
                    yield isa.produce(onward, self.reg(value, residue))

    def _produces_after(self, op: Op, residue: int) -> Iterator[DynInst]:
        qid = self.hops.get((op.op_id, self.stage))
        if qid is not None and self.stage_of[op.op_id] == self.stage:
            for _ in range(op.repeat):
                yield isa.produce(qid, self.reg(op.op_id, residue))


def lower_pipeline(
    partition: Partition,
    queue_base: int = 0,
    hoist_depth: int = DEFAULT_HOIST_DEPTH,
) -> Program:
    """Emit the K-thread pipelined program for ``partition``.

    Thread ``t`` runs stage ``t``; every queue connects thread ``t`` to
    thread ``t + 1`` (see :func:`plan_queue_hops`).
    """
    loop = partition.loop
    n_stages = partition.n_stages
    hops = plan_queue_hops(partition, queue_base)

    def builder(stage: int):
        def build() -> Iterator[DynInst]:
            emitter = _PipelineStageEmitter(
                loop, partition.stage_of, stage, hops, hoist_depth
            )
            return emitter.instructions()

        return build

    return Program(
        name=f"{loop.name}-pipe{n_stages}",
        threads=[
            ThreadProgram(f"{loop.name}-stage{t}", builder(t))
            for t in range(n_stages)
        ],
        queue_endpoints={qid: (src, src + 1) for (_, src), qid in hops.items()},
    )
