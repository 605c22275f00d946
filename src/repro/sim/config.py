"""Machine configuration for the simplified dual-core Itanium 2 CMP.

Defaults mirror Table 2 of the paper:

* 6-issue in-order core: 6 ALUs, 4 memory ports, 2 FP units, 3 branch units
* L1I/L1D: 1 cycle, 16 KB, 4-way, 64 B lines, write-through
* L2 (private): 5/7/9 cycles, 256 KB, 8-way, 128 B lines, write-back
* 16 maximum outstanding loads (OzQ depth)
* Shared L3: >12 cycles, 1.5 MB, 12-way, 128 B lines, write-back
* Main memory: 141 cycles
* Coherence: snoop-based write-invalidate
* L3 bus: 16-byte, 1-cycle, 3-stage pipelined, split-transaction,
  round-robin arbitration

All experiment knobs the paper turns (bus latency/width, queue depth, QLU,
interconnect transit delay, stream cache) live here so that every exhibit is
reproducible as a pure configuration delta from the baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.queue_model import check_queue_region
from repro.faults.plan import FaultPlan
from repro.trace.buffer import TraceConfig


@dataclass
class CoreConfig:
    """Issue-width and functional-unit mix of one core (Table 2)."""

    issue_width: int = 6
    n_ialu: int = 6
    n_falu: int = 2
    n_branch: int = 3
    n_mem_ports: int = 4
    #: Commit (writeback/retire) bandwidth, instructions per cycle.  Bounds the
    #: PostL2 component: designs committing many overhead instructions pay here.
    commit_width: int = 6

    def validate(self) -> None:
        for name in ("issue_width", "n_ialu", "n_falu", "n_branch", "n_mem_ports", "commit_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"core.{name} must be positive")


@dataclass
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int
    write_back: bool = True

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry fields must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by assoc*line "
                f"({self.assoc}*{self.line_bytes})"
            )
        if self.latency < 0:
            raise ValueError("cache latency must be non-negative")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass
class BusConfig:
    """Shared split-transaction L3 bus (Table 2 baseline).

    The paper's sensitivity studies vary ``cycle_latency`` (Figure 10: 4 CPU
    cycles per bus cycle) and ``width_bytes`` (Figure 11: 128 bytes).
    """

    width_bytes: int = 16
    #: CPU cycles per bus cycle (1 in the baseline; 4 in Figures 10/11).
    cycle_latency: int = 1
    stages: int = 3
    pipelined: bool = True

    def validate(self) -> None:
        if self.width_bytes <= 0:
            raise ValueError("bus width must be positive")
        if self.cycle_latency <= 0:
            raise ValueError("bus cycle latency must be positive")
        if self.stages <= 0:
            raise ValueError("bus stage count must be positive")

    def transfer_bus_cycles(self, n_bytes: int) -> int:
        """Bus cycles occupied by a transfer of ``n_bytes`` of payload."""
        if n_bytes <= 0:
            return 1
        return -(-n_bytes // self.width_bytes)  # ceil division


@dataclass
class QueueConfig:
    """Architectural inter-thread queue parameters (Section 4.3)."""

    n_queues: int = 64
    depth: int = 32
    item_bytes: int = 8
    qlu: int = 8

    def validate(self) -> None:
        if self.n_queues <= 0 or self.depth <= 0:
            raise ValueError("queue counts must be positive")
        if self.item_bytes <= 0 or self.qlu <= 0:
            raise ValueError(
                f"queue item_bytes ({self.item_bytes}) and qlu ({self.qlu}) "
                "must be positive"
            )
        if self.depth % self.qlu != 0:
            raise ValueError(
                f"queue depth ({self.depth}) must be a multiple of the QLU ({self.qlu})"
            )


@dataclass
class StreamCacheConfig:
    """The 1 KB fully-associative stream cache of Section 5 (SC variants)."""

    size_bytes: int = 1024
    item_bytes: int = 8
    #: Consume-to-use latency on a stream-cache hit.
    hit_latency: int = 1

    @property
    def n_entries(self) -> int:
        return self.size_bytes // self.item_bytes

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.item_bytes <= 0:
            raise ValueError("stream cache sizes must be positive")
        if self.size_bytes % self.item_bytes != 0:
            raise ValueError(
                f"stream cache size ({self.size_bytes} B) must be a whole number "
                f"of {self.item_bytes}-byte items"
            )


@dataclass
class DedicatedStoreConfig:
    """HEAVYWT's distributed dedicated backing store + interconnect."""

    #: End-to-end transit latency of the dedicated pipelined interconnect.
    transit_delay: int = 1
    #: Concurrent operations the store services per cycle (Section 4.3).
    ops_per_cycle: int = 4
    #: Consume-to-use latency within the consuming core.
    consume_to_use: int = 1

    def validate(self) -> None:
        if self.transit_delay <= 0 or self.ops_per_cycle <= 0 or self.consume_to_use <= 0:
            raise ValueError("dedicated store parameters must be positive")


@dataclass
class SyncOptiConfig:
    """SYNCOPTI-specific microarchitectural parameters (Section 4.2)."""

    #: Stream address generation latency, overlapped with L1 but serializing
    #: the consume's access to L2 synchronization (paper: 2 cycles).
    stream_addr_latency: int = 2
    #: Cycles after which a consume with no forthcoming write-forward triggers
    #: an L3 access to elicit a writeback from the producer (deadlock avoidance
    #: for streams terminating mid-line, and the only delivery path for
    #: slow queues that never fill a line, e.g. bzip2's outer-loop queue).
    partial_line_timeout: int = 64

    def validate(self) -> None:
        if self.stream_addr_latency < 0 or self.partial_line_timeout <= 0:
            raise ValueError("SYNCOPTI parameters must be positive")


@dataclass
class MachineConfig:
    """Complete configuration of the simulated CMP for one run."""

    n_cores: int = 2
    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, assoc=4, line_bytes=64, latency=1, write_back=False
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=256 * 1024, assoc=8, line_bytes=128, latency=7, write_back=True
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1536 * 1024, assoc=12, line_bytes=128, latency=13, write_back=True
        )
    )
    bus: BusConfig = field(default_factory=BusConfig)
    main_memory_latency: int = 141
    #: OzQ depth: maximum outstanding L2 transactions (Table 2: 16 loads).
    ozq_depth: int = 16
    #: L2 cache ports available to recirculating/regular requests per cycle.
    l2_ports: int = 2
    #: Cycles between successive recirculation attempts of a blocked OzQ entry.
    recirculation_interval: int = 4
    queues: QueueConfig = field(default_factory=QueueConfig)
    stream_cache: StreamCacheConfig = field(default_factory=StreamCacheConfig)
    dedicated: DedicatedStoreConfig = field(default_factory=DedicatedStoreConfig)
    syncopti: SyncOptiConfig = field(default_factory=SyncOptiConfig)
    #: Optional seeded fault-injection plan (robustness studies).  ``None``
    #: means the fault-free happy path; a plan is consulted at the narrow
    #: hook points in the bus, memory hierarchy, and queue channels.  Shared
    #: by reference across ``copy()``; each ``Machine`` resets it at
    #: construction so reuse across grid cells stays deterministic.
    faults: Optional[FaultPlan] = None
    #: Optional event-tracing knob, threaded exactly like ``faults``:
    #: ``None`` (the default) means no :class:`~repro.trace.buffer.TraceBuffer`
    #: is ever constructed and every instrumentation site reduces to a single
    #: ``is None`` branch — the zero-overhead contract.
    trace: Optional[TraceConfig] = None

    def validate(self) -> "MachineConfig":
        """Check invariants; returns self so it chains after construction."""
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        self.core.validate()
        self.l1d.validate()
        self.l2.validate()
        self.l3.validate()
        self.bus.validate()
        self.queues.validate()
        self.stream_cache.validate()
        self.dedicated.validate()
        self.syncopti.validate()
        if self.main_memory_latency <= 0:
            raise ValueError("main memory latency must be positive")
        if self.ozq_depth <= 0:
            raise ValueError("OzQ depth must be positive")
        if self.l2.line_bytes != self.l3.line_bytes:
            raise ValueError("L2 and L3 line sizes must match in this model")
        # At the configured QLU, which every design point's layout keeps.
        check_queue_region(self.queues.depth, self.l2.line_bytes, self.queues.qlu)
        if self.faults is not None:
            self.faults.validate()
        if self.trace is not None:
            self.trace.validate()
        return self

    def copy(self, **overrides) -> "MachineConfig":
        """Deep-copy this configuration, applying top-level field overrides."""
        dup = dataclasses.replace(
            self,
            core=dataclasses.replace(self.core),
            l1d=dataclasses.replace(self.l1d),
            l2=dataclasses.replace(self.l2),
            l3=dataclasses.replace(self.l3),
            bus=dataclasses.replace(self.bus),
            queues=dataclasses.replace(self.queues),
            stream_cache=dataclasses.replace(self.stream_cache),
            dedicated=dataclasses.replace(self.dedicated),
            syncopti=dataclasses.replace(self.syncopti),
            trace=(
                dataclasses.replace(self.trace) if self.trace is not None else None
            ),
        )
        for key, value in overrides.items():
            if not hasattr(dup, key):
                raise AttributeError(f"MachineConfig has no field {key!r}")
            setattr(dup, key, value)
        return dup

    def describe(self) -> Dict[str, str]:
        """Human-readable parameter table (reproduces Table 2)."""
        core = self.core
        return {
            "Core": (
                f"{core.issue_width}-issue, {core.n_ialu} ALU, {core.n_mem_ports} Memory, "
                f"{core.n_falu} FP, {core.n_branch} Branch"
            ),
            "L1D Cache": (
                f"{self.l1d.latency} cycle, {self.l1d.size_bytes // 1024} KB, "
                f"{self.l1d.assoc}-way, {self.l1d.line_bytes}B lines, "
                + ("Write-back" if self.l1d.write_back else "Write-through")
            ),
            "L2 Cache": (
                f"{self.l2.latency} cycles, {self.l2.size_bytes // 1024} KB, "
                f"{self.l2.assoc}-way, {self.l2.line_bytes}B lines, Write-back"
            ),
            "Maximum Outstanding Loads": str(self.ozq_depth),
            "Shared L3 Cache": (
                f"{self.l3.latency} cycles, {self.l3.size_bytes / (1024 * 1024):.1f} MB, "
                f"{self.l3.assoc}-way, {self.l3.line_bytes}B lines, Write-back"
            ),
            "Main Memory latency": f"{self.main_memory_latency} cycles",
            "Coherence": "Snoop-based, write-invalidate protocol",
            "L3 Bus": (
                f"{self.bus.width_bytes}-byte, {self.bus.cycle_latency}-cycle, "
                f"{self.bus.stages}-stage "
                + ("pipelined, " if self.bus.pipelined else "non-pipelined, ")
                + "split-transaction bus with round robin arbitration"
            ),
        }


def baseline_config() -> MachineConfig:
    """The Table 2 baseline machine."""
    return MachineConfig().validate()
