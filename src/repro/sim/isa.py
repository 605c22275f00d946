"""Mini-ISA for the simplified Itanium-2-like CMP timing model.

The simulator is trace-driven at the *macro* level: workload kernels emit a
deterministic stream of :class:`DynInst` records (the functional path), and the
core timing model (:mod:`repro.sim.core`) assigns issue/complete timestamps to
each record (the timing path).  ``PRODUCE``/``CONSUME`` are macro-operations
whose realization (a single special instruction, or a ten-instruction
load/store software-queue sequence) is chosen by the active communication
mechanism — see :mod:`repro.core.mechanism`.

Instruction kinds deliberately mirror the resource classes of the baseline
machine in Table 2 of the paper: integer ALUs, FP units, branch units and
memory ports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class InstrKind(enum.Enum):
    """Dynamic instruction categories understood by the core timing model."""

    IALU = "ialu"
    FALU = "falu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    PRODUCE = "produce"
    CONSUME = "consume"
    FENCE = "fence"
    PREFETCH = "prefetch"
    NOP = "nop"


#: Kinds that occupy a memory port when they issue.
MEMORY_KINDS = frozenset(
    {InstrKind.LOAD, InstrKind.STORE, InstrKind.PREFETCH, InstrKind.PRODUCE, InstrKind.CONSUME}
)

#: Kinds that represent inter-thread communication macro-operations.
COMM_KINDS = frozenset({InstrKind.PRODUCE, InstrKind.CONSUME})

#: Fixed execution latencies (cycles) for non-memory instruction kinds.
EXEC_LATENCY = {
    InstrKind.IALU: 1,
    InstrKind.FALU: 4,
    InstrKind.BRANCH: 1,
    InstrKind.FENCE: 1,
    InstrKind.NOP: 1,
}


@dataclass(slots=True)
class DynInst:
    """A single dynamic instruction in a thread's execution trace.

    Attributes:
        kind: The instruction category.
        dest: Destination register id, or ``None`` for instructions that do
            not define a register (stores, branches, fences).
        srcs: Source register ids read by the instruction.
        addr: Effective byte address for memory instructions (``None``
            otherwise).  Communication macro-ops carry a queue id instead.
        queue: Queue id for ``PRODUCE``/``CONSUME`` macro-ops.
        latency: Optional per-instruction execution latency override.
        is_overhead: True when the instruction exists only to implement
            communication (sync/flag/pointer-update/fence micro-ops).  Used
            for COMM-OP accounting and the Figure 8 instruction ratios.
        tag: Free-form label used by tests and debugging ("flag_load", ...).
    """

    kind: InstrKind
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    addr: Optional[int] = None
    queue: Optional[int] = None
    latency: Optional[int] = None
    is_overhead: bool = False
    tag: str = ""

    def is_memory(self) -> bool:
        """Return True when this instruction occupies a memory port."""
        return self.kind in MEMORY_KINDS

    def is_comm(self) -> bool:
        """Return True for PRODUCE/CONSUME macro-operations."""
        return self.kind in COMM_KINDS

    def exec_latency(self) -> int:
        """Execution latency for non-memory instructions."""
        if self.latency is not None:
            return self.latency
        return EXEC_LATENCY.get(self.kind, 1)


# Register-id conventions used by the kernel builders.  The exact numbering is
# arbitrary (the scoreboard only needs identity), but keeping kernels and the
# comm-op expansions in disjoint ranges avoids accidental false dependences.
KERNEL_REG_BASE = 0
COMM_REG_BASE = 1024


@dataclass
class QueueSpec:
    """Static architectural description of one inter-thread queue.

    Attributes:
        queue_id: Architectural queue number (0..n_queues-1).
        depth: Number of queue slots (paper default: 32).
        item_bytes: Size of one queue datum (paper: 8 bytes).
        qlu: Queue layout unit — queue entries per cache line (Figure 5).
    """

    queue_id: int
    depth: int = 32
    item_bytes: int = 8
    qlu: int = 8

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ValueError("queue depth must be positive")
        if self.item_bytes <= 0:
            raise ValueError("queue item size must be positive")
        if self.qlu <= 0:
            raise ValueError("queue layout unit must be positive")
        if self.depth % self.qlu != 0:
            raise ValueError(
                f"queue depth {self.depth} must be a multiple of the QLU {self.qlu}"
            )

    @property
    def lines(self) -> int:
        """Number of distinct cache lines backing this queue."""
        return self.depth // self.qlu

    def slot_line(self, slot: int) -> int:
        """Cache-line index (within the queue's backing region) of a slot."""
        if not 0 <= slot < self.depth:
            raise ValueError(f"slot {slot} out of range for depth {self.depth}")
        return slot // self.qlu

    def line_slots(self, line: int) -> range:
        """The range of slots that live on backing line ``line``."""
        if not 0 <= line < self.lines:
            raise ValueError(f"line {line} out of range for {self.lines} lines")
        return range(line * self.qlu, (line + 1) * self.qlu)


def ialu(dest: int, *srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for an integer ALU instruction."""
    return DynInst(InstrKind.IALU, dest=dest, srcs=tuple(srcs), tag=tag)


def falu(dest: int, *srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for a floating-point instruction."""
    return DynInst(InstrKind.FALU, dest=dest, srcs=tuple(srcs), tag=tag)


def branch(*srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for a branch instruction."""
    return DynInst(InstrKind.BRANCH, srcs=tuple(srcs), tag=tag)


def load(dest: int, addr: int, *srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for a load from ``addr``."""
    return DynInst(InstrKind.LOAD, dest=dest, srcs=tuple(srcs), addr=addr, tag=tag)


def store(addr: int, *srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for a store to ``addr``."""
    return DynInst(InstrKind.STORE, srcs=tuple(srcs), addr=addr, tag=tag)


def produce(queue: int, *srcs: int, tag: str = "") -> DynInst:
    """Convenience constructor for a PRODUCE macro-op on ``queue``."""
    return DynInst(InstrKind.PRODUCE, srcs=tuple(srcs), queue=queue, tag=tag)


def consume(dest: int, queue: int, tag: str = "") -> DynInst:
    """Convenience constructor for a CONSUME macro-op on ``queue``."""
    return DynInst(InstrKind.CONSUME, dest=dest, queue=queue, tag=tag)


def fence(tag: str = "") -> DynInst:
    """Convenience constructor for a memory fence."""
    return DynInst(InstrKind.FENCE, tag=tag)
