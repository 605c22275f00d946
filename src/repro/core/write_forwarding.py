"""MEMOPTI: software queues + producer-initiated write-forwarding (§3.5.1).

MEMOPTI keeps EXISTING's ten-instruction software-queue sequences but adds a
low-impact memory-subsystem optimization: when the producer finishes writing
the last queue entry on a cache line, the cache controller *forwards* the
line to the consumer's private L2 (never to L1, to avoid polluting it with
short-lived streaming data).  Consumer-side flag and data loads then hit
locally instead of demand-fetching across the snoop bus.

The paper's key (and initially surprising) result is that MEMOPTI sometimes
loses to EXISTING: forwarded lines are pushed from the producer's OzQ, and
while the push waits for the bus it recirculates through the L2 ports,
starving regular requests — whereas EXISTING's consumer-demand writebacks
arrive as external coherence requests that the L2 controller prioritizes.
Both effects are modeled in :meth:`repro.mem.hierarchy.MemorySystem.forward_line`
(``contend_ports=True``).
"""

from __future__ import annotations

from repro.core.mechanism import register_mechanism
from repro.core.queue_model import QueueChannel
from repro.core.software_queue import SoftwareQueueMechanism


@register_mechanism("memopti")
class WriteForwardingMechanism(SoftwareQueueMechanism):
    """EXISTING plus write-forwarding of completed queue lines."""

    def _after_flag_set(self, core, ch: QueueChannel, slot: int, at: float) -> None:
        """Forward the backing line once its last slot has been written."""
        layout = ch.layout
        qlu = layout.qlu
        if slot % qlu != qlu - 1:
            return
        line = slot // qlu
        arrival = self.machine.mem.forward_line(
            ch.producer_core, ch.consumer_core, layout.line_addr(line), at, False, True
        )
        if arrival is None:
            # Delivery failed: the consumer's normal coherence miss path
            # still finds the line at the producer, just without the push.
            return
        ch.record_forward(line, arrival)
        core.stats.lines_forwarded += 1
