"""Split-transaction shared L3 bus model (Table 2).

The baseline bus is 16 bytes wide, 1 CPU cycle per bus cycle, 3-stage
pipelined, split-transaction, with round-robin arbitration.  Figures 10 and 11
of the paper vary the bus-cycle latency (4 CPU cycles) and the width (128
bytes) to study interconnect sensitivity.

Timing model (timestamp-driven):

* A transaction carrying ``payload`` bytes occupies ``ceil(payload/width)``
  bus *beats*; each beat takes ``cycle_latency`` CPU cycles.
* A **pipelined** bus can accept a new transaction as soon as the previous
  transaction's beats have been injected (its stages drain concurrently);
  end-to-end latency adds ``stages`` pipeline cycles.
* A **non-pipelined** bus is held for the entire end-to-end duration of each
  transaction; a new transaction starts only after the previous fully
  completes.  This reproduces Section 3.3's throughput gap.

Arbitration is first-come-first-served on timestamps, which is the
steady-state behaviour of a round-robin arbiter under the (time-ordered)
request streams the co-simulator generates; per-requestor grant counters are
kept so tests can check fairness.

Grants are first-fit gaps in one busy-interval calendar per bus, an
:class:`~repro.sim.kernel.timeline.IndexedTimeline`, whichever kernel steps
the machine; each transfer makes exactly one reservation query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.sim.config import BusConfig
from repro.sim.kernel.timeline import IndexedTimeline


@dataclass(slots=True)
class BusTransaction:
    """Result of one bus transaction.

    Attributes:
        request_time: When the requester asked for the bus.
        grant_time: When arbitration granted the bus.
        done_time: When the full transaction (address + payload) completed.
    """

    request_time: float
    grant_time: float
    done_time: float

    @property
    def wait(self) -> float:
        """Arbitration/queueing delay before the grant."""
        return self.grant_time - self.request_time

    @property
    def total(self) -> float:
        """Requester-observed bus latency."""
        return self.done_time - self.request_time


class SharedBus:
    """The shared snoop/L3 bus connecting private L2s, the L3, and memory."""

    #: Payload size used for address-only / control messages (occupies one beat).
    CONTROL_BYTES = 8

    def __init__(
        self,
        config: BusConfig,
        faults: Optional[FaultPlan] = None,
        trace=None,
    ) -> None:
        config.validate()
        self.config = config
        #: Optional fault plan adding arbitration-request jitter (robustness
        #: studies); the bus model itself stays fault-oblivious beyond this.
        self.faults = faults
        #: Optional trace sink; ``None`` keeps ``transfer`` to one branch.
        self.trace = trace
        # Reservation calendar of busy intervals.  A split-transaction bus
        # interleaves unrelated transactions between the address and data
        # phases of an outstanding miss, so a transfer scheduled far in the
        # future (waiting on DRAM) must not block earlier traffic: grants
        # are gap-filled, not appended.  Every kernel steps the machine
        # over this one indexed calendar (repro.sim.kernel.timeline), so
        # the kernels differ only in their stepping loop.
        self.timeline = IndexedTimeline()
        self.transactions = 0
        self.busy_cycles = 0.0
        self.grants_by_requester: Dict[int, int] = {}
        #: payload bytes -> (hold, end-to-end) CPU cycles, filled on first use.
        self._timing: Dict[int, Tuple[float, float]] = {}

    @property
    def beat_cycles(self) -> float:
        """CPU cycles per bus beat."""
        return float(self.config.cycle_latency)

    def occupancy_cycles(self, payload_bytes: int) -> float:
        """CPU cycles of injection occupancy for a payload."""
        beats = self.config.transfer_bus_cycles(payload_bytes)
        return beats * self.beat_cycles

    def end_to_end_cycles(self, payload_bytes: int) -> float:
        """CPU cycles from grant to completion for a payload."""
        beats = self.config.transfer_bus_cycles(payload_bytes)
        return (self.config.stages + beats - 1) * self.beat_cycles

    def transfer(
        self,
        at: float,
        payload_bytes: int,
        requester: int = 0,
        background: bool = False,
    ) -> BusTransaction:
        """Arbitrate for the bus at time ``at`` and move ``payload_bytes``.

        Returns the grant/done times.  The caller charges the observed wait
        and transfer time to its BUS component.

        ``background`` marks a low-priority push (a producer-initiated
        write-forward riding the writeback path).  It queues behind demand
        traffic for its own grant, but consumes only idle bandwidth: no busy
        interval is reserved, so demand transactions never wait behind it.
        The push's cost to its *source* (OzQ entry held, ports churned while
        it waits for the grant) is unaffected — that port-side contention,
        not bus hogging, is what Section 4.4 blames for MEMOPTI's anomaly.
        """
        timing = self._timing.get(payload_bytes)
        if timing is None:
            if payload_bytes < 0:
                raise ValueError("payload must be non-negative")
            end_to_end = self.end_to_end_cycles(payload_bytes)
            if self.config.pipelined:
                # The bus re-opens once the beats are injected.
                timing = (self.occupancy_cycles(payload_bytes), end_to_end)
            else:
                timing = (end_to_end, end_to_end)
            self._timing[payload_bytes] = timing
        hold, end_to_end = timing
        requested = at
        if self.faults is not None:
            # Injected jitter delays the arbitration request; the requester
            # observes it as extra BUS wait (request_time stays unjittered).
            at += self.faults.bus_jitter(requester, at)
        # First-fit gap allocation; a background push finds its gap but
        # does not claim it.
        grant = self.timeline.reserve(at, hold, not background)
        done = grant + end_to_end
        self.transactions += 1
        self.busy_cycles += hold
        grants = self.grants_by_requester
        grants[requester] = grants.get(requester, 0) + 1
        if self.trace is not None:
            self.trace.emit(
                "bus.grant",
                grant,
                core=requester,
                dur=hold,
                payload=payload_bytes,
                wait=grant - requested,
            )
        return BusTransaction(requested, grant, done)

    def control_message(self, at: float, requester: int = 0) -> BusTransaction:
        """Send an address-only message (snoop, upgrade, ACK, counter update)."""
        return self.transfer(at, self.CONTROL_BYTES, requester)

    def utilization(self, horizon: float) -> float:
        """Fraction of CPU cycles the bus was occupied, up to ``horizon``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)
