"""Bounded ring-buffer trace sink with a zero-overhead disabled path.

**Overhead contract.**  Tracing is keyed by ``MachineConfig.trace`` exactly
the way fault injection is keyed by ``MachineConfig.faults``: when the knob
is ``None`` the :class:`~repro.sim.machine.Machine` never constructs a
:class:`TraceBuffer` and every component's trace handle is ``None``.  Each
instrumentation site is then exactly one ``if trace is not None`` branch —
no event object is allocated, no method is called, nothing is appended.  The micro-benchmark
in ``tests/trace/test_overhead.py`` pins this contract: the guarded branch
adds well under the 3% wall-clock budget on a representative workload, and
a disabled run allocates zero trace state.

For call sites that prefer an unconditional ``sink.emit(...)`` (e.g. user
code driving the buffer directly), :data:`NULL_TRACE` is a shared no-op
sink with the same interface.

Events are stored in a :class:`collections.deque` with ``maxlen`` equal to
the configured capacity, so a run longer than the buffer keeps the *newest*
events — the right default for forensics (the interesting events are the
ones just before a wedge).  ``dropped`` counts what fell off the front.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.trace.events import CATEGORIES, TraceEvent, category_of


@dataclass
class TraceConfig:
    """Tracing knob attached to :class:`~repro.sim.config.MachineConfig`.

    Args:
        capacity: Ring-buffer bound (events).  Oldest events are dropped
            once exceeded; derived timelines require the run to fit.
        categories: Restrict recording to these event categories (kind
            prefixes, e.g. ``("queue", "bus")``).  ``None`` records all.
    """

    capacity: int = 1 << 16
    categories: Optional[Tuple[str, ...]] = None

    def validate(self) -> "TraceConfig":
        if self.capacity <= 0:
            raise ValueError("trace capacity must be positive")
        if self.categories is not None:
            unknown = set(self.categories) - set(CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"known: {list(CATEGORIES)}"
                )
        return self


class TraceBuffer:
    """Bounded, append-only sink of :class:`TraceEvent` records."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = (config or TraceConfig()).validate()
        self._events: Deque[TraceEvent] = deque(maxlen=self.config.capacity)
        self._categories = (
            None if self.config.categories is None else frozenset(self.config.categories)
        )
        #: Events recorded past the category filter (including any that
        #: later fell off the ring).
        self.emitted = 0
        #: Events filtered out by the category restriction.
        self.filtered = 0

    # ------------------------------------------------------------------

    def emit(
        self,
        kind: str,
        ts: float,
        core: Optional[int] = None,
        queue: Optional[int] = None,
        dur: float = 0.0,
        **args,
    ) -> None:
        """Record one event (the only hot-path entry point)."""
        if self._categories is not None and category_of(kind) not in self._categories:
            self.filtered += 1
            return
        seq = self.emitted
        self.emitted += 1
        self._events.append(
            TraceEvent(seq=seq, kind=kind, ts=ts, core=core, queue=queue, dur=dur, args=args)
        )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the retained events, in emission order."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound (run longer than capacity)."""
        return self.emitted - len(self._events)

    def select(
        self,
        kind: Optional[str] = None,
        category: Optional[str] = None,
        core: Optional[int] = None,
        queue: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Retained events matching every given criterion, in order."""
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if category is not None and ev.category != category:
                continue
            if core is not None and ev.core != core:
                continue
            if queue is not None and ev.queue != queue:
                continue
            out.append(ev)
        return out

    def tail(self, n: int) -> List[TraceEvent]:
        """The last ``n`` retained events."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def tail_by_core(self, n_per_core: int = 8) -> Dict[Optional[int], List[TraceEvent]]:
        """Last ``n_per_core`` events for each core (None = global events).

        This is what deadlock post-mortems attach: the event sequence each
        core ran immediately before the wedge.
        """
        buckets: Dict[Optional[int], Deque[TraceEvent]] = {}
        for ev in self._events:
            buckets.setdefault(ev.core, deque(maxlen=n_per_core)).append(ev)
        return {core: list(dq) for core, dq in buckets.items()}

    def describe(self) -> str:
        return (
            f"TraceBuffer({len(self._events)} events retained, "
            f"{self.emitted} emitted, {self.dropped} dropped, "
            f"{self.filtered} filtered)"
        )


class _NullTrace:
    """No-op sink sharing :class:`TraceBuffer`'s interface (always empty)."""

    __slots__ = ()
    emitted = 0
    filtered = 0
    dropped = 0

    def emit(self, kind, ts, core=None, queue=None, dur=0.0, **args) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def select(self, **_criteria) -> List[TraceEvent]:
        return []

    def tail(self, n: int) -> List[TraceEvent]:
        return []

    def tail_by_core(self, n_per_core: int = 8) -> Dict[Optional[int], List[TraceEvent]]:
        return {}

    def describe(self) -> str:
        return "NullTrace()"


#: Shared no-op sink for unconditional-call sites.
NULL_TRACE = _NullTrace()
