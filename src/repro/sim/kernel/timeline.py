"""Busy-interval calendars backing shared-resource reservation.

The shared bus answers one query: *given a request at time ``at`` for
``hold`` cycles, when is the first gap that fits?* (first-fit, because a
split-transaction bus interleaves unrelated transactions between the address
and data phases of an outstanding miss — see :class:`repro.mem.bus.SharedBus`).
How the busy intervals are *stored* is a pure host-speed concern, kept
behind the small :class:`BusTimeline` interface:

* :class:`IndexedTimeline` — the calendar every simulation uses:
  *merged* disjoint intervals in parallel start/end
  arrays; a ``bisect`` over the (sorted) end array jumps straight to the
  first interval that can conflict, and pruning pops whole intervals off
  the front.  O(log intervals) per call.
* :class:`LinearTimeline` — the original list-of-intervals with a linear
  first-fit walk and a rebuild-the-list prune, O(intervals) per call.
  Nothing in the simulator builds one: it is the grant-identity oracle the
  tests compare :class:`IndexedTimeline` against.

**Grant-identity.**  Both implementations return identical grant times for
identical call sequences.  Why the indexed form is exact, not approximate:

* *Merging touching intervals is lossless.*  Reserved holds are strictly
  positive (``BusConfig.transfer_bus_cycles`` ≥ 1 beat), so a zero-width
  gap between two touching intervals can never satisfy a request; treating
  the pair as one interval yields the same first fit.
* *Pruning is conservative either way.*  The co-simulator bounds how far
  back in time requests may arrive (:data:`PRUNE_MARGIN` behind the newest
  request seen), so intervals wholly behind the cutoff can never affect a
  future grant — whether they are dropped eagerly (linear), lazily
  (indexed), or kept forever, grants are the same.

``tests/sim/test_kernel.py`` pins the equivalence with a hypothesis
replay of random reserve sequences against both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

#: Cycles of history kept behind the newest request before pruning.  The
#: co-simulator's conservative min-timestamp policy bounds how far back in
#: time requests may arrive; this margin is far beyond that bound.
PRUNE_MARGIN = 20000.0


class BusTimeline:
    """Interface: a first-fit reservation calendar over busy intervals."""

    def reserve(self, at: float, hold: float, reserve: bool = True) -> float:
        """First-fit gap allocation of ``hold`` cycles starting at ``at``.

        With ``reserve=False`` the gap is found but not claimed (background
        transfers use idle bandwidth without delaying demand traffic).
        """
        raise NotImplementedError

    def intervals(self) -> List[Tuple[float, float]]:
        """Busy intervals as sorted ``(start, end)`` pairs."""
        raise NotImplementedError


class LinearTimeline(BusTimeline):
    """The original storage: a sorted interval list walked linearly.

    Kept as the reference the tests replay :class:`IndexedTimeline`
    against; the simulator never builds one.
    """

    def __init__(self) -> None:
        # Busy intervals (start, end), kept sorted by start.  Grants are
        # gap-filled, not appended, so the list stays pairwise disjoint.
        self.busy: List[Tuple[float, float]] = []
        self.prune_before = 0.0

    def reserve(self, at: float, hold: float, reserve: bool = True) -> float:
        busy = self.busy
        # Prune intervals that can no longer affect any request.
        if busy and at - PRUNE_MARGIN > self.prune_before:
            self.prune_before = at - PRUNE_MARGIN
            cutoff = self.prune_before
            keep = [iv for iv in busy if iv[1] >= cutoff]
            busy[:] = keep
        t = at
        i = 0
        n = len(busy)
        # Find the first interval that could overlap [t, t+hold).
        while i < n and busy[i][1] <= t:
            i += 1
        while i < n and busy[i][0] < t + hold:
            t = max(t, busy[i][1])
            i += 1
        if reserve:
            busy.insert(i, (t, t + hold))
        return t

    def intervals(self) -> List[Tuple[float, float]]:
        return list(self.busy)


class IndexedTimeline(BusTimeline):
    """Merged disjoint intervals in parallel arrays, searched by bisect.

    The calendar of :class:`repro.mem.bus.SharedBus`.

    Invariants: ``starts`` is strictly increasing, ``ends[i] > starts[i]``,
    and ``starts[i+1] > ends[i]`` (a true gap between successive intervals —
    touching neighbours are merged on insert).  Disjointness makes ``ends``
    sorted too, so the first interval ending after ``t`` is one bisect away.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.prune_before = 0.0

    def reserve(self, at: float, hold: float, reserve: bool = True) -> float:
        starts = self.starts
        ends = self.ends
        if starts and at - PRUNE_MARGIN > self.prune_before:
            self.prune_before = at - PRUNE_MARGIN
            k = bisect_left(ends, self.prune_before)
            if k:
                del starts[:k]
                del ends[:k]
        t = at
        end = at + hold
        n = len(starts)
        # First interval ending after t is the first possible conflict.
        i = bisect_right(ends, t)
        while i < n and starts[i] < end:
            t = ends[i]  # > t: ends is sorted and ends[i] > t by bisect
            end = t + hold
            i += 1
        if reserve:
            merge_left = i > 0 and ends[i - 1] == t
            merge_right = i < n and starts[i] == end
            if merge_left and merge_right:
                ends[i - 1] = ends[i]
                del starts[i]
                del ends[i]
            elif merge_left:
                ends[i - 1] = end
            elif merge_right:
                starts[i] = t
            else:
                starts.insert(i, t)
                ends.insert(i, end)
        return t

    def intervals(self) -> List[Tuple[float, float]]:
        return list(zip(self.starts, self.ends))
