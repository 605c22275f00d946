"""Abstract interface and registry for streaming communication mechanisms.

A :class:`CommMechanism` realizes the architectural queue contract for one
design point of the paper's design space (Section 3): it decides what a
PRODUCE/CONSUME macro-op costs inside the core (COMM-OP delay), what traffic
it puts on which interconnect, where queue bytes live, and how the two
threads synchronize.  The core timing model calls :meth:`produce` /
:meth:`consume` (both generators, so mechanisms can block on queue state via
the co-simulation protocol); everything else — queue layouts, channels,
endpoint binding — is shared infrastructure provided here.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Generator, Optional

from repro.core.queue_model import QueueLayout
from repro.sim.isa import DynInst

#: name -> factory(machine) registry, populated by the implementations.
_REGISTRY: Dict[str, Callable[["object"], "CommMechanism"]] = {}


def register_mechanism(name: str):
    """Class decorator registering a mechanism under ``name``."""

    def decorate(cls):
        if name in _REGISTRY:
            raise ValueError(f"mechanism {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorate


def create_mechanism(name: str, machine) -> "CommMechanism":
    """Instantiate a registered mechanism by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown mechanism {name!r}; known: {known}") from None
    return factory(machine)


def available_mechanisms():
    """Names of all registered mechanisms."""
    return sorted(_REGISTRY)


class CommMechanism(abc.ABC):
    """Base class for the four design points (and their variants)."""

    #: Set by @register_mechanism.
    name: str = "abstract"
    #: Per-slot co-located flag storage in the backing layout (software
    #: queues: 8 bytes; counter-synchronized designs: 0).
    flag_bytes: int = 0

    def __init__(self, machine) -> None:
        self.machine = machine
        #: The machine's channel table, bound when the mechanism is built.
        #: Comm ops look their channel up here and fall back to
        #: ``Machine.channel`` (lazy creation, range check) on a miss.
        self._channels = machine.channels

    # ------------------------------------------------------------------
    # Layout / channel plumbing
    # ------------------------------------------------------------------

    def layout_for(self, queue_id: int) -> QueueLayout:
        """Build this mechanism's backing layout for one queue."""
        qcfg = self.machine.config.queues
        line = self.machine.config.l2.line_bytes
        slot = qcfg.item_bytes + self.flag_bytes
        # The configured QLU is capped by how many slots physically fit.
        qlu = min(qcfg.qlu, line // slot)
        # Keep depth a multiple of the effective QLU.
        if qcfg.depth % qlu != 0:
            qlu = max(q for q in range(1, qlu + 1) if qcfg.depth % q == 0)
        return QueueLayout(
            queue_id=queue_id,
            depth=qcfg.depth,
            item_bytes=qcfg.item_bytes,
            qlu=qlu,
            line_bytes=line,
            flag_bytes=self.flag_bytes,
        )

    # ------------------------------------------------------------------
    # Blocking helper (co-simulation protocol)
    # ------------------------------------------------------------------

    def wait_for_len(
        self,
        core,
        lst,
        index: int,
        deadline: Optional[float] = None,
        reason: str = "",
        queue_id: Optional[int] = None,
    ) -> Generator:
        """Block ``core`` until ``len(lst) > index`` (or ``deadline`` passes).

        Returns ``"ok"`` or ``"timeout"``.  Yields a time heartbeat first so
        the scheduler sees the blocking core's current clock.

        ``reason`` ("full"/"empty"/...) and ``queue_id`` label the optional
        queue.block / queue.unblock trace events.  Both events carry the
        blocking core's clock *at the block point* — the simulated wait shows
        up as the stall the mechanism charges right after resuming.
        """
        if len(lst) > index:
            return "ok"
        trace = getattr(core, "trace", None)  # tolerate stub cores in tests
        if trace is not None:
            trace.emit(
                "queue.block", core.now, core=core.core_id,
                queue=queue_id, reason=reason, index=index,
            )
        yield ("time", core.now)
        status = yield ("block", (lambda: len(lst) > index), deadline)
        if trace is not None:
            trace.emit(
                "queue.unblock", core.now, core=core.core_id,
                queue=queue_id, reason=reason, status=status,
            )
        return status

    # ------------------------------------------------------------------
    # The design-point-specific COMM-OP realizations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def produce(self, core, inst: DynInst) -> Generator:
        """Execute a PRODUCE macro-op on ``core`` (generator; may block)."""

    @abc.abstractmethod
    def consume(self, core, inst: DynInst) -> Generator:
        """Execute a CONSUME macro-op on ``core`` (generator; may block)."""

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------

    def on_streaming_eviction(self, core_id: int, line_addr: int, at: float) -> None:
        """An L2 evicted a streaming line (SYNCOPTI flushes counters)."""

    def describe(self) -> str:
        """One-line summary used by reports."""
        return self.name
