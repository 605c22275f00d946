"""Named design points of the paper's evaluation (Sections 4 and 5).

A design point is a (communication mechanism, machine-configuration delta)
pair.  The four Section 4 points — EXISTING, MEMOPTI, SYNCOPTI, HEAVYWT —
plus the three Section 5 SYNCOPTI optimizations — Q64, SC, SC+Q64 — are
registered here, along with the override knobs a campaign cell names
(:data:`OVERRIDE_KNOBS`): the sensitivity studies of Figures 6, 10 and 11
(interconnect transit delay, queue depth, bus latency, bus width), the
pipeline study's core count, and the OzQ depth and stream-cache size the
ablations turn.  Every run's config is a design point's plus these knobs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.config import MachineConfig, baseline_config


@dataclass(frozen=True)
class DesignPoint:
    """A named point in the communication-support design space."""

    name: str
    mechanism: str
    description: str
    configure: Optional[Callable[[MachineConfig], None]] = None

    def build_config(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        """Materialize this design point's machine configuration."""
        config = (base or baseline_config()).copy()
        if self.configure is not None:
            self.configure(config)
        return config.validate()


def _q64(config: MachineConfig) -> None:
    """64-entry queues with 16 packed 8-byte items per 128 B line (§5)."""
    config.queues.depth = 64
    config.queues.qlu = 16


DESIGN_POINTS: Dict[str, DesignPoint] = {
    point.name: point
    for point in (
        DesignPoint(
            name="EXISTING",
            mechanism="existing",
            description=(
                "Commercial-CMP baseline: software queues over coherent "
                "shared memory; ~10 instructions and a fence per comm op"
            ),
        ),
        DesignPoint(
            name="MEMOPTI",
            mechanism="memopti",
            description=(
                "EXISTING plus write-forwarding of completed queue lines "
                "to the consumer's L2 (never L1)"
            ),
        ),
        DesignPoint(
            name="SYNCOPTI",
            mechanism="syncopti",
            description=(
                "produce/consume instructions, stream address logic, L2 "
                "occupancy counters, locality-enhanced write-forwarding, "
                "bulk ACKs; memory subsystem as backing store"
            ),
        ),
        DesignPoint(
            name="SYNCOPTI_Q64",
            mechanism="syncopti",
            description="SYNCOPTI with 64-entry queues and QLU 16",
            configure=_q64,
        ),
        DesignPoint(
            name="SYNCOPTI_SC",
            mechanism="syncopti_sc",
            description="SYNCOPTI with the 1 KB fully-associative stream cache",
        ),
        DesignPoint(
            name="SYNCOPTI_SC_Q64",
            mechanism="syncopti_sc",
            description="SYNCOPTI with both the stream cache and Q64 (the paper's pick)",
            configure=_q64,
        ),
        DesignPoint(
            name="HEAVYWT",
            mechanism="heavywt",
            description=(
                "Dedicated distributed backing store at the consumer core "
                "plus a dedicated pipelined interconnect (synchronization-"
                "array / scalar-operand-network class)"
            ),
        ),
    )
}

#: The Figure 7 evaluation order (left to right).
FIGURE7_ORDER = ("HEAVYWT", "SYNCOPTI", "EXISTING", "MEMOPTI")

#: The Figure 12 evaluation order (left to right).
FIGURE12_ORDER = (
    "HEAVYWT",
    "SYNCOPTI_SC_Q64",
    "SYNCOPTI_SC",
    "SYNCOPTI_Q64",
    "SYNCOPTI",
)


def get_design_point(name: str) -> DesignPoint:
    try:
        return DESIGN_POINTS[name]
    except KeyError:
        known = ", ".join(sorted(DESIGN_POINTS))
        raise KeyError(f"unknown design point {name!r}; known: {known}") from None


def with_transit_delay(config: MachineConfig, cycles: int) -> MachineConfig:
    """Figure 6 override: HEAVYWT dedicated-interconnect end-to-end latency."""
    out = config.copy()
    out.dedicated = dataclasses.replace(out.dedicated, transit_delay=cycles)
    return out.validate()


def with_queue_depth(config: MachineConfig, depth: int) -> MachineConfig:
    """Figure 6 override: queue entries (32 vs 64)."""
    out = config.copy()
    out.queues = dataclasses.replace(out.queues, depth=depth)
    return out.validate()


def with_bus_latency(config: MachineConfig, cpu_cycles: int) -> MachineConfig:
    """Figure 10 override: CPU cycles per bus cycle."""
    out = config.copy()
    out.bus = dataclasses.replace(out.bus, cycle_latency=cpu_cycles)
    return out.validate()


def with_bus_width(config: MachineConfig, width_bytes: int) -> MachineConfig:
    """Figure 11 override: bus width in bytes."""
    out = config.copy()
    out.bus = dataclasses.replace(out.bus, width_bytes=width_bytes)
    return out.validate()


def with_n_cores(config: MachineConfig, n_cores: int) -> MachineConfig:
    """Pipeline-scaling override: core count (= maximum pipeline stages).

    Every per-core structure (cores, store ports, stream-cache instances,
    L1/L2 instances, snoop sets) is sized from ``n_cores`` at machine
    construction, so this is the only knob an N-stage pipeline needs.
    """
    out = config.copy(n_cores=n_cores)
    return out.validate()


def with_ozq_depth(config: MachineConfig, depth: int) -> MachineConfig:
    """Ablation override: maximum outstanding L2 transactions (Table 2: 16)."""
    out = config.copy(ozq_depth=depth)
    return out.validate()


def with_stream_cache_bytes(config: MachineConfig, size_bytes: int) -> MachineConfig:
    """Section 5 ablation: stream-cache capacity, a whole number of items.

    Points without the stream cache accept it and run unchanged, as
    non-HEAVYWT points do ``transit_delay``.
    """
    out = config.copy()
    out.stream_cache = dataclasses.replace(out.stream_cache, size_bytes=size_bytes)
    return out.validate()


#: The declarative override vocabulary: name -> config transform.  Campaign
#: cells carry plain ``{name: value}`` dicts (JSON-serializable, picklable
#: across worker processes, hashable into cell keys) instead of closures;
#: this table is the single mapping both the serial and pooled grid paths
#: apply, so a cell means the same machine either way.
OVERRIDE_KNOBS = {
    "transit_delay": with_transit_delay,
    "queue_depth": with_queue_depth,
    "bus_latency": with_bus_latency,
    "bus_width": with_bus_width,
    "n_cores": with_n_cores,
    "ozq_depth": with_ozq_depth,
    "stream_cache_bytes": with_stream_cache_bytes,
}


def apply_overrides(config: MachineConfig, overrides) -> MachineConfig:
    """Apply a declarative ``{knob: value}`` mapping via the ``with_*`` helpers.

    Knobs are applied in :data:`OVERRIDE_KNOBS` order (not dict order) so a
    cell's machine is independent of how its overrides dict was built.
    """
    for name, transform in OVERRIDE_KNOBS.items():
        if name in overrides:
            config = transform(config, overrides[name])
    unknown = set(overrides) - set(OVERRIDE_KNOBS)
    if unknown:
        raise KeyError(
            f"unknown override knob(s) {sorted(unknown)}; "
            f"known: {sorted(OVERRIDE_KNOBS)}"
        )
    return config
