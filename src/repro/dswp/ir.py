"""Loop intermediate representation for the DSWP partitioner.

A :class:`Loop` is a single-level counted loop whose body is a list of
:class:`Op` nodes with explicit intra-iteration and loop-carried dependences
— the view a compiler's program dependence graph gives the DSWP pass.  Ops
carry enough operational detail (kind, latency class, memory address
pattern) for the code generator to lower a partition into the simulator's
dynamic instruction streams.

Memory behaviour is expressed with :class:`AddressPattern` generators rather
than concrete data: the timing simulator only needs byte addresses, and the
patterns (sequential streams, strided array walks, seeded pointer chases)
reproduce the locality/footprint characteristics of the paper's benchmark
loops.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


class OpKind(enum.Enum):
    """Operation classes, mirroring the simulator's functional units."""

    IALU = "ialu"
    FALU = "falu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


@dataclass
class AddressPattern:
    """Base class: a deterministic per-iteration address stream."""

    def stream(self) -> Iterator[int]:
        """Yield one address per dynamic execution of the owning op."""
        raise NotImplementedError


@dataclass
class Sequential(AddressPattern):
    """Streaming walk: ``base + i*stride`` wrapping at ``footprint`` bytes."""

    base: int
    stride: int = 8
    footprint: int = 1 << 20

    def __post_init__(self) -> None:
        if self.stride <= 0 or self.footprint <= 0:
            raise ValueError("stride and footprint must be positive")

    def stream(self) -> Iterator[int]:
        offset = 0
        while True:
            yield self.base + offset
            offset = (offset + self.stride) % self.footprint


@dataclass
class Strided(AddressPattern):
    """Array walk with a gather index: ``base + index[i]*stride``.

    The indices are a seeded pseudo-random permutation walk, standing in for
    the indirection of sparse codes (equake's column indices, art's winner
    search).
    """

    base: int
    stride: int = 8
    n_elements: int = 4096
    seed: int = 7

    def stream(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        while True:
            yield self.base + rng.randrange(self.n_elements) * self.stride


@dataclass
class PointerChase(AddressPattern):
    """Linked-structure traversal over a shuffled node cycle (mcf, wc lists).

    Visits ``n_nodes`` node headers in a fixed pseudo-random cyclic order —
    the access pattern of ``while (ptr = ptr->next)`` over a cold heap.
    """

    base: int
    node_bytes: int = 64
    n_nodes: int = 8192
    seed: int = 11

    def stream(self) -> Iterator[int]:
        order = _visit_order(self.n_nodes, self.seed)
        position = 0
        while True:
            yield self.base + order[position] * self.node_bytes
            position = (position + 1) % self.n_nodes


@functools.lru_cache(maxsize=64)
def _visit_order(n_nodes: int, seed: int) -> Tuple[int, ...]:
    """The seeded node cycle of a :class:`PointerChase`, shuffled once per
    ``(n_nodes, seed)`` rather than once per stream."""
    order = list(range(n_nodes))
    random.Random(seed).shuffle(order)
    return tuple(order)


@dataclass
class Op:
    """One static operation in the loop body.

    Attributes:
        op_id: Unique name within the loop.
        kind: Operation class.
        deps: Intra-iteration dependences: ids of ops (earlier in the body)
            whose values this op reads.
        carried_deps: Loop-carried dependences: ids of ops whose *previous
            iteration* values this op reads (recurrences).
        addr: Address pattern for LOAD/STORE ops.
        repeat: Static unrolling — how many dynamic instances per iteration.
        weight: Estimated cycles per instance (defaults by kind).
    """

    op_id: str
    kind: OpKind
    deps: Tuple[str, ...] = ()
    carried_deps: Tuple[str, ...] = ()
    addr: Optional[AddressPattern] = None
    repeat: int = 1
    weight: Optional[float] = None

    #: Default per-kind weight estimates used for partition balancing.
    DEFAULT_WEIGHTS = {
        OpKind.IALU: 1.0,
        OpKind.FALU: 4.0,
        OpKind.LOAD: 3.0,
        OpKind.STORE: 1.5,
        OpKind.BRANCH: 1.0,
    }

    def __post_init__(self) -> None:
        if self.repeat <= 0:
            raise ValueError("repeat must be positive")
        if self.kind in (OpKind.LOAD, OpKind.STORE) and self.addr is None:
            raise ValueError(f"memory op {self.op_id!r} needs an address pattern")
        if self.kind not in (OpKind.LOAD, OpKind.STORE) and self.addr is not None:
            raise ValueError(f"non-memory op {self.op_id!r} cannot have an address pattern")

    @property
    def est_weight(self) -> float:
        base = self.weight if self.weight is not None else self.DEFAULT_WEIGHTS[self.kind]
        return base * self.repeat


@dataclass
class Loop:
    """A counted streaming loop: the unit DSWP partitions."""

    name: str
    body: List[Op]
    trip_count: int = 1000

    def __post_init__(self) -> None:
        if self.trip_count <= 0:
            raise ValueError("trip count must be positive")
        seen = set()
        for op in self.body:
            if op.op_id in seen:
                raise ValueError(f"duplicate op id {op.op_id!r}")
            seen.add(op.op_id)
        for op in self.body:
            for dep in op.deps + op.carried_deps:
                if dep not in seen:
                    raise ValueError(f"op {op.op_id!r} depends on unknown op {dep!r}")
        # Intra-iteration deps must reference earlier body positions.
        position = {op.op_id: i for i, op in enumerate(self.body)}
        for op in self.body:
            for dep in op.deps:
                if position[dep] >= position[op.op_id]:
                    raise ValueError(
                        f"intra-iteration dep {dep!r} -> {op.op_id!r} is not "
                        "in program order (use carried_deps for recurrences)"
                    )

    def op(self, op_id: str) -> Op:
        for op in self.body:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)

    def total_weight(self) -> float:
        return sum(op.est_weight for op in self.body)

    def dynamic_instructions(self) -> int:
        """Dynamic body instructions over the loop's full run."""
        return self.trip_count * sum(op.repeat for op in self.body)
