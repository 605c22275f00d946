"""Lowering DSWP partitions (and unpartitioned loops) to simulator programs.

The code generator turns a :class:`~repro.dswp.partition.Partition` of any
stage count into a K-thread :class:`~repro.sim.program.Program`:

* stage-``t`` ops run on thread ``t``, in body order;
* queues connect adjacent stages only: every (value, boundary) hop gets one
  architectural queue (:func:`~repro.dswp.partition.plan_queue_hops`).  The
  defining thread emits a PRODUCE right after the defining op's body
  position; each downstream thread emits the matching CONSUME at the top of
  its iteration (the DSWP convention), and a middle stage the value passes
  through re-PRODUCEs it into the next hop's queue right away (a *relay*),
  so every queue's endpoints are an adjacent core pair — the traffic
  pattern each mechanism's per-channel machinery was built for;
* loop control (induction update + backward branch) is replicated into
  every thread, exactly as DSWP emits it;
* pure streaming loads (no register inputs) are **modulo-scheduled**: each is
  hoisted ``hoist_depth`` iterations ahead using rotating registers, the
  software pipelining an EPIC compiler (the paper's OpenIMPACT/Itanium
  toolchain) applies to overlap cache misses across iterations.  Dependent
  loads (pointer chases, gathers) cannot be hoisted and stay in place.

The paper's dual-core programs are the two-stage case.  How PRODUCE/CONSUME
macro-ops are *realized* — one instruction or a ten-instruction
software-queue sequence — is the communication mechanism's business, not
the code generator's: the same lowered program runs unchanged on every
design point, which is what makes the paper's comparisons apples-to-apples.

``lower_single_threaded`` emits the original, unpartitioned loop (with the
same load hoisting, and no queues) for the Figure 9 speedup baseline.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dswp.ir import Loop, Op, OpKind
from repro.dswp.partition import Hop, Partition, plan_queue_hops
from repro.sim import isa
from repro.sim.isa import DynInst
from repro.sim.program import Program, ThreadProgram

#: Register allocated to the loop induction variable in every thread.
INDUCTION_REG = 999

#: Iterations a pure streaming load is hoisted ahead of its first use.
DEFAULT_HOIST_DEPTH = 3

#: Register-id stride per op: leaves room for rotating registers.
_REG_STRIDE = 16

#: Simulator instruction kind of each IR op kind.
_INSTR_KIND = {
    OpKind.IALU: isa.InstrKind.IALU,
    OpKind.FALU: isa.InstrKind.FALU,
    OpKind.BRANCH: isa.InstrKind.BRANCH,
    OpKind.LOAD: isa.InstrKind.LOAD,
    OpKind.STORE: isa.InstrKind.STORE,
}

#: A lowered-template entry: an instruction, plus the address stream a
#: load/store instance draws its address from (None: emit ``inst`` itself).
_Entry = Tuple[DynInst, Optional[Iterator[int]]]


def hoistable_ops(loop: Loop) -> Set[str]:
    """Ops that modulo scheduling can hoist: input-free streaming loads."""
    return {
        op.op_id
        for op in loop.body
        if op.kind is OpKind.LOAD and not op.deps and not op.carried_deps
    }


class _StageEmitter:
    """Emits one stage's dynamic instruction stream for a partitioned loop.

    The emission skeleton: modulo-scheduled hoisting, consumes (and relays)
    at the top of the iteration, the body walk in program order with each
    produce after its defining op, and replicated loop control.  ``hops``
    is the partition's queue plan; an empty plan emits the unpartitioned
    loop.

    **Lowered once per rotation residue.**  An iteration's registers depend
    on its index only through ``iteration % (hoist_depth + 1)`` (the
    rotating registers of hoisted loads), so the loop body is lowered once
    per residue into a *template* when the thread's stream starts, and each
    iteration replays its residue's template.  A template entry is an
    ``(inst, addresses)`` pair: a non-memory instruction is emitted as the
    one shared :class:`~repro.sim.isa.DynInst` (consumers treat emitted
    instructions as read-only), with its execution latency fixed at build
    time; a load or store (``addresses`` is its op's address stream) is
    emitted as a fresh instance taking the stream's next address.

    **Emitted run by run.**  Each template is split at its loads and stores
    into runs of shared instructions, and the stream chains those runs
    with the fresh memory instances (:func:`itertools.chain`), each
    instance leading the run that follows it, so a shared instruction is
    emitted without resuming a generator.
    """

    def __init__(
        self,
        loop: Loop,
        stage_of: Dict[str, int],
        stage: int,
        hops: Dict[Hop, int],
        hoist_depth: int,
    ) -> None:
        self.loop = loop
        self.stage_of = stage_of
        self.stage = stage
        self.hops = hops
        self.hoist_depth = hoist_depth
        self.base_reg = {op.op_id: i * _REG_STRIDE for i, op in enumerate(loop.body)}
        # Rotation applies only to hoisted loads owned by this thread.
        self.rotated = {
            op_id
            for op_id in hoistable_ops(loop)
            if stage_of[op_id] == stage and hoist_depth > 0
        }
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

    def reg(self, op_id: str, iteration: int) -> int:
        base = self.base_reg[op_id]
        if op_id in self.rotated:
            return base + iteration % (self.hoist_depth + 1)
        return base

    def _mine(self, op: Op) -> bool:
        return self.stage_of[op.op_id] == self.stage

    def _lower_op(self, op: Op, residue: int, addresses) -> List[_Entry]:
        """Template entries of ``op``'s ``repeat`` instances in one iteration."""
        kind = _INSTR_KIND[op.kind]
        srcs = tuple(self.reg(d, residue) for d in op.deps + op.carried_deps)
        if op.kind is OpKind.LOAD or op.kind is OpKind.STORE:
            dest = self.reg(op.op_id, residue) if op.kind is OpKind.LOAD else None
            proto = DynInst(kind, dest=dest, srcs=srcs, tag=op.op_id)
            return [(proto, addresses)] * op.repeat
        dest = None if op.kind is OpKind.BRANCH else self.reg(op.op_id, residue)
        inst = DynInst(
            kind, dest=dest, srcs=srcs, latency=isa.EXEC_LATENCY[kind], tag=op.op_id
        )
        return [(inst, None)] * op.repeat

    def _consumes(self, residue: int) -> Iterator[DynInst]:
        """CONSUMEs (and relays) emitted at the top of one iteration."""
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
        """PRODUCEs emitted right after ``op``'s body position."""
        qid = self.hops.get((op.op_id, self.stage))
        if qid is not None and self.stage_of[op.op_id] == self.stage:
            for _ in range(op.repeat):
                yield isa.produce(qid, self.reg(op.op_id, residue))

    def _body_template(self, residue: int, streams) -> List[_Entry]:
        """One iteration minus its hoisted loads: consumes, body, control."""
        # DSWP convention: all consumes at the top of the iteration.
        entries: List[_Entry] = [(inst, None) for inst in self._consumes(residue)]
        for op in self.loop.body:
            # Body in program order (hoisted loads are emitted ahead).
            if self._mine(op) and op.op_id not in self.rotated:
                entries += self._lower_op(op, residue, streams.get(op.op_id))
            entries += [(inst, None) for inst in self._produces_after(op, residue)]
        # Replicated loop control.
        ialu, branch = isa.InstrKind.IALU, isa.InstrKind.BRANCH
        induction = DynInst(
            ialu,
            dest=INDUCTION_REG,
            srcs=(INDUCTION_REG,),
            latency=isa.EXEC_LATENCY[ialu],
            tag="ind",
        )
        backedge = DynInst(
            branch, srcs=(INDUCTION_REG,), latency=isa.EXEC_LATENCY[branch], tag="loopbr"
        )
        entries += [(induction, None), (backedge, None)]
        return entries

    def _hoist_template(self, residue: int, streams) -> List[_Entry]:
        """The hoisted loads of one target iteration, in body order."""
        entries: List[_Entry] = []
        for op in self.loop.body:
            if op.op_id in self.rotated:
                entries += self._lower_op(op, residue, streams[op.op_id])
        return entries

    def instructions(self) -> Iterator[DynInst]:
        loop = self.loop
        streams = {
            op.op_id: op.addr.stream()
            for op in loop.body
            if op.addr is not None and self._mine(op)
        }
        period = self.hoist_depth + 1
        bodies = [_split_runs(self._body_template(r, streams)) for r in range(period)]
        hoists = [self._hoist_template(r, streams) for r in range(period)]
        return chain.from_iterable(self._pieces(bodies, hoists))

    def _pieces(self, bodies, hoists) -> Iterator[Iterable[DynInst]]:
        """The stream as tuples: each fresh load or store instance leads
        the shared run that follows it."""
        trip = self.loop.trip_count
        k = self.hoist_depth
        period = k + 1
        for i in range(trip):
            # Modulo-scheduling: emit hoisted loads ahead of their iteration.
            if k > 0:
                if i == 0:
                    hoist_targets = range(0, min(k + 1, trip))
                elif i + k < trip:
                    hoist_targets = range(i + k, i + k + 1)
                else:
                    hoist_targets = range(0, 0)
                for target in hoist_targets:
                    for proto, addresses in hoists[target % period]:
                        yield (
                            DynInst(
                                proto.kind, proto.dest, proto.srcs, next(addresses),
                                None, None, False, proto.tag,
                            ),
                        )
            lead, tail = bodies[i % period]
            if lead:
                yield lead
            for proto, addresses, run in tail:
                yield (
                    DynInst(
                        proto.kind, proto.dest, proto.srcs, next(addresses),
                        None, None, False, proto.tag,
                    ),
                    *run,
                )


#: A template split at its loads and stores: the run of shared
#: instructions before the first of them, then each load or store (its
#: prototype and address stream) with the shared run that follows it.
_Split = Tuple[
    Tuple[DynInst, ...], List[Tuple[DynInst, Iterator[int], Tuple[DynInst, ...]]]
]


def _split_runs(entries: List[_Entry]) -> _Split:
    """Split a template at its loads and stores into runs of shared
    instructions."""
    lead: List[DynInst] = []
    tail = []
    run = lead
    for inst, addresses in entries:
        if addresses is None:
            run.append(inst)
        else:
            run = []
            tail.append((inst, addresses, run))
    return tuple(lead), [(proto, addresses, tuple(run)) for proto, addresses, run in tail]


def lower_pipeline(
    partition: Partition, hoist_depth: int = DEFAULT_HOIST_DEPTH
) -> Program:
    """Emit the K-thread pipelined program for ``partition``.

    Thread ``t`` runs stage ``t``; every queue connects thread ``t`` to
    thread ``t + 1`` (see :func:`~repro.dswp.partition.plan_queue_hops`).
    """
    loop = partition.loop
    n_stages = partition.n_stages
    hops = plan_queue_hops(partition)

    def builder(stage: int):
        def build() -> Iterator[DynInst]:
            emitter = _StageEmitter(
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


def lower_single_threaded(
    loop: Loop, hoist_depth: int = DEFAULT_HOIST_DEPTH
) -> Program:
    """Emit the original, unpartitioned loop (Figure 9 baseline)."""
    stage_of = {op.op_id: 0 for op in loop.body}

    def build() -> Iterator[DynInst]:
        emitter = _StageEmitter(loop, stage_of, 0, {}, hoist_depth)
        return emitter.instructions()

    return Program(
        name=f"{loop.name}-single",
        threads=[ThreadProgram(f"{loop.name}-st", build)],
        queue_endpoints={},
    )
