"""Timestamp-based resource availability timelines.

The simulator is timestamp-driven rather than cycle-stepped: each shared
resource (functional units, memory ports, cache ports, bus slots, dedicated
store ports) is a small calendar that answers "given a request arriving at
time T, when is the resource granted?" and records the grant.  This models
structural hazards and contention at full fidelity for in-order request
streams while running orders of magnitude faster than per-cycle simulation.
"""

from __future__ import annotations

import heapq
from typing import List


class UnitPool:
    """A pool of ``n`` identical units, each busy for some cycles per grant.

    Grants are served by the earliest-free unit.  This models a group of
    functional units (e.g. 4 memory ports) where each accepted operation
    occupies one unit for ``busy`` cycles.
    """

    def __init__(self, n_units: int, name: str = "") -> None:
        if n_units <= 0:
            raise ValueError("unit pool needs at least one unit")
        self.name = name
        self.n_units = n_units
        # Min-heap of times at which each unit becomes free.
        self._free_at: List[float] = [0.0] * n_units
        heapq.heapify(self._free_at)
        self.grants = 0
        self.busy_cycles = 0.0
        #: Two-phase grants opened by :meth:`begin` and not yet ended.
        self._open_grants = 0

    def earliest_grant(self, at: float) -> float:
        """When would a request arriving at ``at`` be granted? (no booking)"""
        return max(at, self._free_at[0])

    def acquire(self, at: float, busy: float = 1.0) -> float:
        """Grant a unit to a request arriving at ``at``; returns grant time.

        The granted unit is busy for ``busy`` cycles from the grant.
        """
        if busy < 0:
            raise ValueError("busy time must be non-negative")
        free_at = self._free_at
        first = free_at[0]
        grant = first if first > at else at
        heapq.heapreplace(free_at, grant + busy)
        self.grants += 1
        self.busy_cycles += busy
        return grant

    def begin(self, at: float) -> float:
        """Two-phase grant: claim the earliest-free unit, hold it open-ended.

        Must be paired with :meth:`end`.  Used when the occupancy duration is
        only known after the serviced operation completes (e.g. an OzQ entry
        held for the full, contention-dependent miss service time).
        """
        grant = max(at, heapq.heappop(self._free_at))
        self.grants += 1
        self._open_grants += 1
        return grant

    def end(self, grant: float, free_at: float) -> None:
        """Close a :meth:`begin` grant, freeing its unit at ``free_at``."""
        if self._open_grants <= 0:
            raise RuntimeError("UnitPool.end() without matching begin()")
        self._open_grants -= 1
        heapq.heappush(self._free_at, max(grant, free_at))
        self.busy_cycles += max(0.0, free_at - grant)

    def utilization(self, horizon: float) -> float:
        """Fraction of unit-cycles busy up to ``horizon``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (horizon * self.n_units))


class ThroughputPort:
    """A resource accepting at most one new request every ``interval`` cycles.

    Models pipelined structures (a pipelined bus accepts a new transaction
    every ``latency/stages`` cycles; a dedicated store accepts ``k`` ops per
    cycle via interval ``1/k``).
    """

    def __init__(self, interval: float, name: str = "") -> None:
        if interval <= 0:
            raise ValueError("issue interval must be positive")
        self.name = name
        self.interval = interval
        self._next_free = 0.0
        self.grants = 0

    def earliest_grant(self, at: float) -> float:
        return max(at, self._next_free)

    def acquire(self, at: float, occupancy: float = None) -> float:
        """Grant the port; it re-opens after ``occupancy`` (default interval)."""
        grant = max(at, self._next_free)
        occ = self.interval if occupancy is None else occupancy
        if occ < 0:
            raise ValueError("occupancy must be non-negative")
        self._next_free = grant + occ
        self.grants += 1
        return grant
