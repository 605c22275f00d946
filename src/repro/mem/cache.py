"""Functional set-associative cache arrays with MESI line state.

These arrays provide the *functional* half of the memory model: presence,
coherence state, LRU replacement, and per-line fill timestamps (a line
installed by a write-forward push at time T is not readable before T).  The
*timing* half (latencies, port and bus contention) lives in
:mod:`repro.mem.hierarchy`.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.sim.config import CacheConfig


class LineState(enum.Enum):
    """MESI coherence states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


_INVALID = LineState.INVALID
_MODIFIED = LineState.MODIFIED


@dataclass(slots=True)
class CacheLine:
    """One resident cache line."""

    line_addr: int
    state: LineState
    #: Earliest time the line's data is usable (fills in flight).
    ready_at: float = 0.0
    #: True when the line holds inter-thread queue data (streaming).
    streaming: bool = False

    @property
    def dirty(self) -> bool:
        return self.state is _MODIFIED


class CacheArray:
    """A set-associative, LRU cache directory.

    Addresses are byte addresses; lines are indexed by ``addr // line_bytes``.
    The array never stores data values — the simulator is timing-only — but
    tracks state, fill time and the streaming flag per line.
    """

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        config.validate()
        self.config = config
        self.name = name
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        # Per-set LRU: OrderedDict line_addr -> CacheLine, LRU first.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def line_addr(self, addr: int) -> int:
        """Line index of a byte address."""
        return addr // self.line_bytes

    # Set selection (``line_addr % n_sets``) is written out in each access
    # method below: it runs on every simulated cache access.

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Look up a line without updating LRU or counters (snoop path)."""
        return self._sets[line_addr % self.n_sets].get(line_addr)

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Look up a line, updating LRU and hit/miss counters."""
        cset = self._sets[line_addr % self.n_sets]
        line = cset.get(line_addr)
        if line is None or line.state is _INVALID:
            self.misses += 1
            return None
        cset.move_to_end(line_addr)
        self.hits += 1
        return line

    def install(
        self,
        line_addr: int,
        state: LineState,
        ready_at: float = 0.0,
        streaming: bool = False,
    ) -> Optional[CacheLine]:
        """Install (or refresh) a line; returns the victim if one was evicted.

        A returned victim in ``MODIFIED`` state must be written back by the
        caller (the timing model charges the bus for it).
        """
        if state is _INVALID:
            raise ValueError("cannot install an INVALID line")
        cset = self._sets[line_addr % self.n_sets]
        existing = cset.get(line_addr)
        if existing is not None:
            existing.state = state
            if ready_at > existing.ready_at:
                existing.ready_at = ready_at
            existing.streaming = existing.streaming or streaming
            cset.move_to_end(line_addr)
            return None
        victim = None
        if len(cset) >= self.assoc:
            _, victim = cset.popitem(last=False)
            self.evictions += 1
            if victim.state is _MODIFIED:
                self.writebacks += 1
        cset[line_addr] = CacheLine(line_addr, state, ready_at, streaming)
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line (snoop invalidation); returns it if it was present."""
        return self._sets[line_addr % self.n_sets].pop(line_addr, None)

    def downgrade(self, line_addr: int) -> None:
        """Move a line to SHARED (snoop read hit on M/E)."""
        line = self.probe(line_addr)
        if line is not None:
            line.state = LineState.SHARED

    def set_state(self, line_addr: int, state: LineState) -> None:
        line = self.probe(line_addr)
        if line is None:
            raise KeyError(f"line {line_addr:#x} not resident in {self.name}")
        line.state = state

    def resident_lines(self) -> Iterator[CacheLine]:
        for cset in self._sets:
            yield from cset.values()

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(cset) for cset in self._sets)

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.assoc

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
