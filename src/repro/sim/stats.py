"""Per-thread statistics and critical-path component attribution.

The paper's breakdown bars (Figures 7, 10, 11, 12) split each thread's
execution time into non-overlappable components:

* ``PreL2``  — main-pipe stalls before the L2 (issue stalls, OzQ backpressure,
  queue-full/empty blocking, fences).
* ``L2``     — time spent in the L2 cache (hits, port contention,
  recirculation churn).
* ``BUS``    — time on the shared bus (arbitration, snoops, data transfer).
* ``L3``     — time in the shared L3.
* ``MEM``    — main-memory time.
* ``PostL2`` — stages following the L2: L1 fill, writeback/commit.  Designs
  that commit many overhead instructions (software queues) pay here.

We additionally track a ``COMPUTE`` component (cycles the core is doing
useful, non-stalled work) so components always sum to the thread's execution
time, and a rich set of event counters used by tests and the Figure 8 ratios.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Ordered component names, bottom-to-top as stacked in the paper's figures.
COMPONENTS = ("COMPUTE", "PreL2", "L2", "BUS", "L3", "MEM", "PostL2")

#: Components that come from memory-access latency breakdowns.
MEMORY_COMPONENTS = ("L2", "BUS", "L3", "MEM")


@dataclass(slots=True)
class LatencyBreakdown:
    """Where the cycles of one memory access were spent.

    ``total`` may exceed the sum of the named components (e.g. L1-hit cycles
    or stream-address generation are folded into the issuing core's view);
    the residual is charged to the consuming instruction's compute time.
    """

    total: int = 0
    l2: int = 0
    bus: int = 0
    l3: int = 0
    mem: int = 0
    #: Front-end/queue-blocking share (queue-empty waits folded into a
    #: consume's defining mix charge to PreL2).
    prel2: int = 0

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            total=self.total + other.total,
            l2=self.l2 + other.l2,
            bus=self.bus + other.bus,
            l3=self.l3 + other.l3,
            mem=self.mem + other.mem,
            prel2=self.prel2 + other.prel2,
        )

    def residual(self) -> int:
        """Cycles not attributed to any named component."""
        return max(0, self.total - (self.l2 + self.bus + self.l3 + self.mem + self.prel2))

    def scaled_to(self, cycles: int) -> "LatencyBreakdown":
        """Proportionally rescale the named components to ``cycles`` total.

        Used when only part of an access's latency is exposed on the critical
        path (the rest overlapped with other work): the exposure keeps the
        access's component *mix* but the exposed magnitude.

        Components are allocated sequentially against a running remainder so
        per-component rounding can never push their sum above ``cycles`` —
        independent ``round()`` calls could each round up and overshoot,
        which used to leak negative residuals into the caller.
        """
        if cycles <= 0 or self.total <= 0:
            return LatencyBreakdown()
        l2, bus, l3, mem, prel2 = self._shares(cycles)
        return LatencyBreakdown(total=cycles, l2=l2, bus=bus, l3=l3, mem=mem, prel2=prel2)

    def _shares(self, cycles: int) -> Tuple[int, int, int, int, int]:
        """:meth:`scaled_to`'s (l2, bus, l3, mem, prel2), for ``cycles`` > 0
        and ``total`` > 0, without building the breakdown.

        An exposure of at least ``total`` cycles scales by exactly 1, so
        each (whole-cycle) component is taken whole; a shorter one scales
        each by ``cycles / total`` (< 1) and rounds.  Either way each
        share is then capped by the running remainder.
        :meth:`ThreadStats.charge_breakdown` writes this rule out inline.
        """
        total = self.total
        if cycles >= total:
            l2, bus, l3, mem, prel2 = self.l2, self.bus, self.l3, self.mem, self.prel2
        else:
            f = cycles / total
            l2 = round(self.l2 * f)
            bus = round(self.bus * f)
            l3 = round(self.l3 * f)
            mem = round(self.mem * f)
            prel2 = round(self.prel2 * f)
        remaining = cycles
        if l2 > remaining:
            l2 = remaining
        remaining -= l2
        if bus > remaining:
            bus = remaining
        remaining -= bus
        if l3 > remaining:
            l3 = remaining
        remaining -= l3
        if mem > remaining:
            mem = remaining
        remaining -= mem
        if prel2 > remaining:
            prel2 = remaining
        return l2, bus, l3, mem, prel2


@dataclass
class ThreadStats:
    """Counters and component attribution for one thread of a run."""

    thread_id: int = 0
    #: Total simulated execution cycles of this thread.
    cycles: int = 0
    #: Committed *application* instructions (kernel work).
    app_instructions: int = 0
    #: Committed communication/synchronization overhead instructions.
    comm_instructions: int = 0
    #: Number of PRODUCE macro-ops executed.
    produces: int = 0
    #: Number of CONSUME macro-ops executed.
    consumes: int = 0
    #: Cycles stalled because a produce found its queue full.
    queue_full_stall: int = 0
    #: Cycles stalled because a consume found its queue empty.
    queue_empty_stall: int = 0
    #: Spin-loop flag-load reissues (software-queue designs).
    spin_reissues: int = 0
    #: OzQ-full backpressure events.
    ozq_backpressure_events: int = 0
    #: Stream-cache hits / misses (SC designs).
    stream_cache_hits: int = 0
    stream_cache_misses: int = 0
    #: Write-forwarded lines sent (producer side).
    lines_forwarded: int = 0
    #: Critical-path component attribution, cycles per component.
    components: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in COMPONENTS}
    )

    def charge(self, component: str, cycles: float) -> None:
        """Attribute ``cycles`` of critical-path time to ``component``."""
        if component not in self.components:
            raise KeyError(f"unknown component {component!r}")
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.components[component] += cycles

    def charge_breakdown(self, bd: LatencyBreakdown, exposed: float) -> None:
        """Attribute an exposed memory latency using the access's mix.

        Exactly ``exposed`` cycles are charged in total: the named components
        receive at most ``int(exposed)`` cycles (``scaled_to`` caps their
        sum), and the residual — fractional cycles plus anything the mix does
        not cover — lands in COMPUTE with no clamping.  Rounding can shift a
        cycle between components but never create or destroy one.
        """
        if exposed <= 0:
            return
        comps = self.components
        cycles = int(exposed)
        total = bd.total
        if cycles <= 0 or total <= 0:  # nothing named: all residual
            comps["COMPUTE"] += exposed
            return
        # ``bd._shares(cycles)``, written out: this runs on every exposed
        # memory stall.
        if cycles >= total:
            l2, bus, l3, mem, prel2 = bd.l2, bd.bus, bd.l3, bd.mem, bd.prel2
        else:
            f = cycles / total
            l2 = round(bd.l2 * f)
            bus = round(bd.bus * f)
            l3 = round(bd.l3 * f)
            mem = round(bd.mem * f)
            prel2 = round(bd.prel2 * f)
        remaining = cycles
        if l2 > remaining:
            l2 = remaining
        remaining -= l2
        if bus > remaining:
            bus = remaining
        remaining -= bus
        if l3 > remaining:
            l3 = remaining
        remaining -= l3
        if mem > remaining:
            mem = remaining
        remaining -= mem
        if prel2 > remaining:
            prel2 = remaining
        if l2 < 0 or bus < 0 or l3 < 0 or mem < 0 or prel2 < 0:
            raise ValueError("cannot charge negative cycles")
        comps["L2"] += l2
        comps["BUS"] += bus
        comps["L3"] += l3
        comps["MEM"] += mem
        comps["PreL2"] += prel2
        comps["COMPUTE"] += exposed - (l2 + bus + l3 + mem + prel2)

    @property
    def total_instructions(self) -> int:
        return self.app_instructions + self.comm_instructions

    @property
    def comm_to_app_ratio(self) -> float:
        """Figure 8's y-axis: communication vs application instructions."""
        if self.app_instructions == 0:
            return 0.0
        return self.comm_instructions / self.app_instructions

    def component_sum(self) -> float:
        return sum(self.components.values())

    def canonical(self) -> Dict[str, object]:
        """Order-stable plain-data view of every counter, for fingerprinting."""
        return {
            "thread_id": self.thread_id,
            "cycles": self.cycles,
            "app_instructions": self.app_instructions,
            "comm_instructions": self.comm_instructions,
            "produces": self.produces,
            "consumes": self.consumes,
            "queue_full_stall": self.queue_full_stall,
            "queue_empty_stall": self.queue_empty_stall,
            "spin_reissues": self.spin_reissues,
            "ozq_backpressure_events": self.ozq_backpressure_events,
            "stream_cache_hits": self.stream_cache_hits,
            "stream_cache_misses": self.stream_cache_misses,
            "lines_forwarded": self.lines_forwarded,
            "components": {name: self.components[name] for name in COMPONENTS},
        }

    def normalized_components(self, baseline_cycles: float) -> Dict[str, float]:
        """Components rescaled so their sum equals cycles/baseline_cycles.

        The attribution is approximate (overlap makes exact attribution
        ill-posed even in real simulators); normalizing preserves each
        component's share while making bars comparable across design points,
        exactly how the paper plots them.
        """
        if baseline_cycles <= 0:
            raise ValueError("baseline cycles must be positive")
        total = self.component_sum()
        height = self.cycles / baseline_cycles
        if total <= 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: height * value / total for name, value in self.components.items()}


@dataclass
class RunStats:
    """Statistics for a complete multi-threaded run."""

    threads: List[ThreadStats] = field(default_factory=list)
    #: Host wall-clock seconds the run consumed (``Machine.run`` /
    #: ``resume_run`` stamp it).  Host-side observability only — excluded
    #: from :meth:`fingerprint` *and* from ``==`` (``compare=False``):
    #: both express simulated outcome and must not vary with machine load.
    host_seconds: float = field(default=0.0, compare=False)

    @property
    def cycles(self) -> int:
        """Wall-clock cycles of the run: the slowest thread defines it."""
        return max((t.cycles for t in self.threads), default=0)

    @property
    def simulated_cycles_per_sec(self) -> float:
        """Simulation throughput: simulated cycles per host second.

        Reported in campaign ``cell-end`` records and the
        ``repro_sim_cycles_per_sec`` histogram.  0.0 when timing was not
        captured.
        """
        if self.host_seconds <= 0:
            return 0.0
        return self.cycles / self.host_seconds

    def thread(self, thread_id: int) -> ThreadStats:
        for t in self.threads:
            if t.thread_id == thread_id:
                return t
        raise KeyError(f"no thread {thread_id}")

    @property
    def producer(self) -> ThreadStats:
        """Thread 0 by convention (the pipeline's first stage)."""
        return self.thread(0)

    @property
    def consumer(self) -> ThreadStats:
        """Highest-numbered thread by convention (the pipeline's last stage).

        Thread 1 for the paper's two-stage partitions; the terminal stage
        for the K-stage pipelines of the scaling study
        (:func:`repro.harness.experiments.pipeline_scaling`).
        """
        return self.thread(max(t.thread_id for t in self.threads))

    def fingerprint(self) -> str:
        """Stable hash of every counter of every thread of this run.

        The simulator is deterministic end to end (seeded
        :class:`~repro.faults.plan.FaultPlan` RNG, ordered scheduler
        tie-breaks), so re-running a cell with the same configuration must
        reproduce this value byte for byte.  The campaign ledger records it
        per completed cell, turning that determinism promise into a checked
        invariant and a golden-regression store for CI.

        Canonical form: compact JSON with sorted keys over
        :meth:`ThreadStats.canonical`, SHA-256, first 16 hex digits (64 bits
        — ample for grid-sized collections, short enough to eyeball in the
        ledger).
        """
        payload = json.dumps(
            [t.canonical() for t in self.threads],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, as used for the paper's summary bars."""
    vals = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
