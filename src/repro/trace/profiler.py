"""COMM-OP delay profiler: the paper's Section 3 measurement as an artifact.

The paper's central claim is that streaming threads are sensitive to
**COMM-OP delay** — the per-operation, intra-core cost of executing a
produce or consume sequence — and not to transit delay.  The simulator's
core model emits one ``comm.produce`` / ``comm.consume`` trace event per
macro-op, spanning the op on the issue clock and carrying the queue-stall
share and the per-component (PreL2/L2/BUS/...) charge deltas accrued while
the op executed.  This profiler folds those events into per-design-point
COMM-OP statistics and renders the paper's comparison across
EXISTING / MEMOPTI / SYNCOPTI / HEAVYWT.

Measured quantity: ``op delay = max(0, dur - queue_stall - operand_feed)``
per op — the issue-clock cycles the operation itself costs, with
queue-full/empty blocking (load balance / transit, not operation overhead)
and operand-feed exposure (the application dataflow delivering the value
being produced, identical across design points) both subtracted.  The
split columns report where those cycles went using the
paper's component taxonomy; charges a mechanism defers to the first
dependent instruction (consume-to-use latency) are attributed there, as in
the paper's figures.

Measurement protocol — the *decoupled* (buffered) regime
--------------------------------------------------------

The paper's Section 4.3 COMM-OP analysis counts the instructions and
exposed cache latency of one operation with the queue's buffering
decoupling the two threads: slots a consumer reads were produced a while
ago, slots a producer writes were freed a while ago.  Most of the suite's
kernels, run natively, instead sit in a *lock-step race*: the consumer is
rate-matched to the producer and its spin loads chase the producer through
the very line it is writing, so the measured cost of an op is dominated by
cross-thread line interference (flag ping-pong) rather than by the op
itself — and a mechanism's intrinsic advantage (MEMOPTI's forwarded lines
arriving *before* the consumer wants them) never gets to apply.

The profiler therefore measures each kernel in a consumer-paced variant:
after every CONSUME the consumer thread executes a dependent integer-ALU
chain (``consumer_pacing`` cycles), slowing the drain rate below the fill
rate so the channel runs at its buffered steady state.  Producer-side
queue-full blocking grows, but blocking is subtracted from op delay by
construction; what remains is the paper's per-op cost.  Pass
``consumer_pacing=0`` to measure the native (rate-matched) schedule
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The Section 3/4 comparison order, worst to best COMM-OP delay.
COMM_OP_POINTS = ("EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT")

#: Component keys carried in comm event args (lowercase taxonomy).
_SPLIT_KEYS = ("compute", "prel2", "l2", "bus", "l3", "mem", "postl2")


@dataclass
class CommOpStats:
    """Aggregated COMM-OP measurements for one (benchmark, design point)."""

    benchmark: str
    design_point: str
    n_produces: int = 0
    n_consumes: int = 0
    #: Sum of per-op delays (queue blocking excluded).
    total_delay: float = 0.0
    #: Sum of queue-full/empty blocking observed across ops.
    total_block: float = 0.0
    #: Sum of operand-feed exposure (app dataflow delivering the produced
    #: value inside the op span) across ops.
    total_feed: float = 0.0
    #: Summed per-component charge deltas accrued inside op spans.
    components: Dict[str, float] = field(
        default_factory=lambda: {k: 0.0 for k in _SPLIT_KEYS}
    )

    @property
    def n_ops(self) -> int:
        return self.n_produces + self.n_consumes

    @property
    def mean_delay(self) -> float:
        """Mean COMM-OP delay in cycles per operation."""
        return self.total_delay / self.n_ops if self.n_ops else 0.0

    @property
    def mean_block(self) -> float:
        return self.total_block / self.n_ops if self.n_ops else 0.0

    @property
    def mean_feed(self) -> float:
        return self.total_feed / self.n_ops if self.n_ops else 0.0

    def mean_component(self, key: str) -> float:
        return self.components[key] / self.n_ops if self.n_ops else 0.0

    def add_op(self, kind: str, dur: float, stall: float, args: Dict[str, object]) -> None:
        if kind == "comm.produce":
            self.n_produces += 1
        else:
            self.n_consumes += 1
        # Queue blocking is load balance; operand-feed exposure is app
        # dataflow.  Neither is operation cost — subtract both.
        feed = float(args.get("feed", 0.0))
        self.total_delay += max(0.0, dur - stall - feed)
        self.total_block += stall
        self.total_feed += feed
        for key in _SPLIT_KEYS:
            value = args.get(key)
            if value is not None:
                self.components[key] += float(value)


#: Scratch register for pacing chains — far outside the kernel and comm-op
#: register ranges (see repro.sim.isa), so no false dependences arise.
_PACE_REG = 1 << 20


def decoupled_program(program, pacing: int):
    """Consumer-paced copy of a pipeline program (see module docstring).

    Every thread that consumes from some queue and produces into none gets a
    dependent ``pacing``-instruction integer-ALU chain after each CONSUME,
    anchored on the consumed value.  Threads that also produce (pipeline
    middle stages) are left untouched.  ``pacing <= 0`` returns the program
    unchanged.
    """
    from repro.sim import isa
    from repro.sim.program import Program, ThreadProgram

    if pacing <= 0:
        return program
    producers = {p for p, _ in program.queue_endpoints.values()}
    consumers = {c for _, c in program.queue_endpoints.values()}

    def paced(builder):
        def build():
            for inst in builder():
                yield inst
                if inst.kind is isa.InstrKind.CONSUME:
                    prev = inst.dest if inst.dest is not None else _PACE_REG
                    for _ in range(pacing):
                        yield isa.ialu(_PACE_REG, prev, tag="pace")
                        prev = _PACE_REG
        return build

    threads = [
        ThreadProgram(t.name, paced(t.builder))
        if idx in consumers and idx not in producers
        else t
        for idx, t in enumerate(program.threads)
    ]
    return Program(program.name + "+paced", threads, dict(program.queue_endpoints))


def measure_comm_ops(trace, benchmark: str, design_point: str) -> CommOpStats:
    """Fold one traced run's ``comm.*`` events into :class:`CommOpStats`."""
    stats = CommOpStats(benchmark=benchmark, design_point=design_point)
    for ev in trace:
        if ev.kind not in ("comm.produce", "comm.consume"):
            continue
        stall = float(ev.args.get("stall", 0.0))
        stats.add_op(ev.kind, ev.dur, stall, ev.args)
    return stats


def measure_hop_delays(
    trace, queue_endpoints: Dict[int, Tuple[int, int]], benchmark: str, design_point: str
) -> Dict[int, float]:
    """Mean COMM-OP delay per pipeline hop, from one traced run.

    A hop is keyed by its source stage: the producer, in
    ``queue_endpoints``, of the queue an op targeted.  Each hop's ops are
    folded by :func:`measure_comm_ops`, so a hop's delay is the quantity
    the profiler measures.
    """
    source = {qid: producer for qid, (producer, _) in queue_endpoints.items()}
    ops: Dict[int, list] = {}
    for ev in trace:
        if ev.kind in ("comm.produce", "comm.consume") and ev.queue in source:
            ops.setdefault(source[ev.queue], []).append(ev)
    return {
        hop: measure_comm_ops(events, benchmark, design_point).mean_delay
        for hop, events in ops.items()
    }


@dataclass
class CommOpReport:
    """Profiling results over a (benchmark x design point) grid."""

    benchmarks: Sequence[str]
    design_points: Sequence[str]
    cells: Dict[str, Dict[str, CommOpStats]]

    def delay(self, design_point: str, benchmark: Optional[str] = None) -> float:
        """Mean COMM-OP delay for a point (one benchmark or suite average)."""
        if benchmark is not None:
            return self.cells[benchmark][design_point].mean_delay
        values = [self.cells[b][design_point].mean_delay for b in self.benchmarks]
        return sum(values) / len(values) if values else 0.0

    def ordering(self, benchmark: Optional[str] = None) -> List[str]:
        """Design points sorted from largest to smallest COMM-OP delay."""
        return sorted(
            self.design_points,
            key=lambda p: self.delay(p, benchmark),
            reverse=True,
        )

    def render(self) -> str:
        from repro.harness.reporting import format_table  # lazy: avoid cycle

        headers = (
            "Benchmark",
            "Design point",
            "ops",
            "COMM-OP delay",
            "PreL2",
            "L2",
            "BUS",
            "block/op",
        )
        rows = []
        for bench in self.benchmarks:
            for point in self.design_points:
                cell = self.cells[bench][point]
                rows.append(
                    (
                        bench,
                        point,
                        cell.n_ops,
                        f"{cell.mean_delay:.2f}",
                        f"{cell.mean_component('prel2'):.2f}",
                        f"{cell.mean_component('l2'):.2f}",
                        f"{cell.mean_component('bus'):.2f}",
                        f"{cell.mean_block:.2f}",
                    )
                )
        rows.append(("", "", "", "", "", "", "", ""))
        for point in self.design_points:
            rows.append(
                ("MEAN", point, "", f"{self.delay(point):.2f}", "", "", "", "")
            )
        return (
            "== COMM-OP delay by design point (cycles per operation) ==\n"
            + format_table(headers, rows)
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class CommOpProfiler:
    """Run benchmarks across design points and compare COMM-OP delay.

    Example::

        report = CommOpProfiler(benchmarks=("wc",)).profile()
        print(report.render())
        assert report.ordering() == list(COMM_OP_POINTS)
    """

    def __init__(
        self,
        benchmarks: Iterable[str] = ("wc", "adpcmdec", "fir"),
        design_points: Iterable[str] = COMM_OP_POINTS,
        trip_count: int = 200,
        consumer_pacing: int = 256,
    ) -> None:
        self.benchmarks = tuple(benchmarks)
        self.design_points = tuple(design_points)
        if trip_count <= 0:
            raise ValueError("trip_count must be positive")
        if consumer_pacing < 0:
            raise ValueError("consumer_pacing must be non-negative")
        self.trip_count = trip_count
        #: Dependent-ALU cycles appended per CONSUME to reach the buffered
        #: steady state (module docstring); 0 = native schedule.
        self.consumer_pacing = consumer_pacing

    def profile(self) -> CommOpReport:
        """Run the grid with ``comm``-category tracing and aggregate."""
        # Imported lazily: the harness imports the sim layer, which imports
        # this package's buffer module — a top-level import here would cycle.
        from repro.core.design_points import get_design_point
        from repro.sim.machine import Machine
        from repro.trace.buffer import TraceConfig
        from repro.workloads.suite import build_pipelined

        cells: Dict[str, Dict[str, CommOpStats]] = {}
        for bench in self.benchmarks:
            cells[bench] = {}
            program = decoupled_program(
                build_pipelined(bench, self.trip_count), self.consumer_pacing
            )
            for point in self.design_points:
                dp = get_design_point(point)
                cfg = dp.build_config().copy(
                    trace=TraceConfig(capacity=1 << 20, categories=("comm",))
                )
                machine = Machine(cfg, mechanism=dp.mechanism)
                machine.run(program)
                cells[bench][point] = measure_comm_ops(machine.trace, bench, point)
        return CommOpReport(
            benchmarks=self.benchmarks,
            design_points=self.design_points,
            cells=cells,
        )
