"""Outside-in timing wrappers around the public calls of each layer.

The benchmark measures layers from its own files: :class:`Tracer` swaps
wrappers onto classes of :mod:`repro` while installed and restores the
originals on :meth:`Tracer.uninstall`.  Nothing in ``src/`` changes.

Two kinds of wrapper:

* **Layer spans** (simulator layers).  Entering a wrapper pushes its layer
  on one stack and leaving pops it; elapsed time is always charged to the
  layer on top.  A layer's self time is therefore its span time minus the
  time its child spans cover, and the self times of all layers plus the
  residual ``other`` (time inside no span) sum to the traced wall time by
  construction.  Generators (instruction streams, core models, mechanism
  comm-ops) are timed per resumption.
* **Call timers** (ledger, store and I/O calls).  Inclusive time and a call
  count per function, for calls made outside the stepping loop.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Simulator layers.  ``other`` is the residual: program construction,
#: machine set-up and result assembly.
LAYERS = ("codegen", "core", "stats", "mech", "mem", "bus", "calendar", "kernel", "other")

#: Call count kept for each simulator layer's wrapped calls.
COUNT_KEYS = {
    "codegen": "codegen.insts",
    "core": "core.runs",
    "stats": "stats.calls",
    "mech": "mech.comm_ops",
    "mem": "mem.accesses",
    "bus": "bus.transfers",
    "calendar": "bus.calendar_calls",
    "kernel": "kernel.runs",
}

#: The memory system's public access methods.
MEM_ACCESS_METHODS = (
    "load", "store", "stream_load", "forward_line", "observe_update", "control_ack",
)

_clock = time.perf_counter


class Tracer:
    """Per-layer self time, call counts and call timers for traced passes."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.call_s: Dict[str, float] = {}
        self._stack: List[str] = []
        self._mark = 0.0
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every figure in place and restart the clock."""
        self.self_s.clear()
        self.self_s.update({layer: 0.0 for layer in LAYERS})
        self.counts.clear()
        self.call_s.clear()
        self._stack[:] = ["other"]
        self._mark = _clock()

    def flush(self) -> None:
        """Charge the time since the last mark to the layer on top."""
        now = _clock()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now

    def _push(self, layer: str) -> None:
        now = _clock()
        stack = self._stack
        self.self_s[stack[-1]] += now - self._mark
        self._mark = now
        stack.append(layer)

    def _pop(self) -> None:
        now = _clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def _counter(self, key: Optional[str], layer: str, nested: bool) -> Callable[[], None]:
        """Call-count hook: every call, or only the outermost into ``layer``."""
        counts, stack = self.counts, self._stack
        if key is None:
            return lambda: None
        if nested:
            def bump() -> None:
                counts[key] = counts.get(key, 0) + 1
        else:
            def bump() -> None:
                if stack[-1] != layer:
                    counts[key] = counts.get(key, 0) + 1
        return bump

    # -- wrapper factories ----------------------------------------------

    def span_call(self, layer: str, key: Optional[str] = None, nested: bool = False):
        push, pop = self._push, self._pop
        bump = self._counter(key, layer, nested)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bump()
                push(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()

            return traced

        return make

    def span_generator(self, layer: str, key: Optional[str] = None):
        """Wrap a generator function: each resumption is one span."""
        push, pop = self._push, self._pop
        bump = self._counter(key, layer, False)

        def drive(gen):
            value = None
            while True:
                push(layer)
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    pop()
                value = yield item

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bump()
                return drive(fn(*args, **kwargs))

            return traced

        return make

    def span_stream(self, layer: str, key: str):
        """Wrap a function returning an iterator: time and count each item."""
        push, pop, counts = self._push, self._pop, self.counts

        def iterate(it):
            while True:
                push(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    pop()
                counts[key] = counts.get(key, 0) + 1
                yield item

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                push(layer)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    pop()
                return iterate(it)

            return traced

        return make

    def timed_call(self, key: str):
        counts, call_s = self.counts, self.call_s

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    call_s[key] = call_s.get(key, 0.0) + (_clock() - t0)
                    counts[key] = counts.get(key, 0) + 1

            return timed

        return make

    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, name, raw))
        setattr(owner, name, new)

    # -- installation ---------------------------------------------------

    def install_simulator(self) -> "Tracer":
        """Span wrappers on every simulator layer's public calls."""
        from repro.core.mechanism import _REGISTRY as MECHANISMS
        from repro.core.mechanism import CommMechanism
        from repro.mem.bus import SharedBus
        from repro.mem.hierarchy import MemorySystem
        from repro.sim.core import CoreModel
        from repro.sim.kernel import (
            IndexedTimeline,
            LinearTimeline,
            available_kernels,
            kernel_class,
        )
        from repro.sim.program import ThreadProgram
        from repro.sim.stats import ThreadStats

        keys = COUNT_KEYS
        self._patch(ThreadProgram, "instructions", self.span_stream("codegen", keys["codegen"]))
        self._patch(CoreModel, "run", self.span_generator("core", keys["core"]))
        for name in ("charge", "charge_breakdown"):
            self._patch(ThreadStats, name, self.span_call("stats", keys["stats"], nested=True))
        for name in MEM_ACCESS_METHODS:
            self._patch(MemorySystem, name, self.span_call("mem", keys["mem"]))
        self._patch(SharedBus, "transfer", self.span_call("bus", keys["bus"]))
        for timeline in (LinearTimeline, IndexedTimeline):
            self._patch(timeline, "reserve", self.span_call("calendar", keys["calendar"]))
        patched = set()
        for cls in MECHANISMS.values():
            for klass in cls.__mro__:
                if klass is CommMechanism or not issubclass(klass, CommMechanism):
                    continue
                for name in ("produce", "consume"):
                    if name in klass.__dict__ and (klass, name) not in patched:
                        patched.add((klass, name))
                        self._patch(klass, name, self.span_generator("mech", keys["mech"]))
        for kname in available_kernels():
            klass = kernel_class(kname)
            if "run" in klass.__dict__:
                self._patch(klass, "run", self.span_call("kernel", keys["kernel"]))
        self.reset()
        return self

    def install_store(self) -> "Tracer":
        """Call timers on the campaign ledger, the result store and fsync."""
        from repro.harness.campaign import CampaignLedger
        from repro.store.io import RealFS
        from repro.store.store import ResultStore

        self._patch(CampaignLedger, "append", self.timed_call("ledger.append"))
        self._patch(ResultStore, "get", self.timed_call("store.get"))
        self._patch(ResultStore, "put", self.timed_call("store.put"))
        self._patch(RealFS, "fsync", self.timed_call("io.fsync"))
        self._patch(RealFS, "fsync_dir", self.timed_call("io.fsync"))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
