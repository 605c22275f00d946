"""The top-level simulated CMP: cores + memory hierarchy + mechanism.

``Machine`` wires a :class:`~repro.sim.config.MachineConfig` into core timing
models, the coherent memory hierarchy, and one communication mechanism, then
co-simulates a :class:`~repro.sim.program.Program` to completion, returning
per-thread statistics.

Typical use::

    from repro import Machine, baseline_config
    machine = Machine(baseline_config(), mechanism="syncopti")
    stats = machine.run(program)
    print(stats.cycles, stats.producer.components)
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.mechanism import create_mechanism

# Importing the implementations registers them.
from repro.core import heavywt as _heavywt  # noqa: F401
from repro.core import software_queue as _software_queue  # noqa: F401
from repro.core import stream_cache as _stream_cache  # noqa: F401
from repro.core import syncopti as _syncopti  # noqa: F401
from repro.core import write_forwarding as _write_forwarding  # noqa: F401
from repro.core.queue_model import QueueChannel
from repro.mem.hierarchy import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.core import CoreModel
from repro.sim.forensics import dump_channel
from repro.sim.kernel import SimKernel, observe_run
from repro.sim.program import Program
from repro.sim.stats import RunStats
from repro.trace.buffer import TraceBuffer

#: Events attached per core to deadlock/step-limit post-mortems.
POST_MORTEM_TRACE_TAIL = 8


class Machine:
    """A configured CMP instance; single-use per ``run`` for clean state."""

    def __init__(self, config: MachineConfig, mechanism: str = "existing") -> None:
        self.config = config.validate()
        #: Fault plan shared with the memory system / bus / channels.  Reset
        #: here so a plan reused across grid cells starts every run from
        #: event zero — same seed, same injections, same RunStats.
        self.faults = config.faults
        if self.faults is not None:
            self.faults.reset()
        #: Trace sink shared with every instrumented component, or ``None``
        #: when tracing is off — each hook is then one ``is None`` branch.
        self.trace = TraceBuffer(config.trace) if config.trace is not None else None
        if self.faults is not None:
            self.faults.trace = self.trace
        self.mem = MemorySystem(config, trace=self.trace)
        self.channels: Dict[int, QueueChannel] = {}
        self.mechanism = create_mechanism(mechanism, self)
        self.mem.on_streaming_eviction = self.mechanism.on_streaming_eviction
        self.cores = [CoreModel(i, self) for i in range(config.n_cores)]
        self._ran = False

    def channel(self, queue_id: int) -> QueueChannel:
        """Get (or lazily create) the channel for one architectural queue."""
        ch = self.channels.get(queue_id)
        if ch is None:
            if queue_id >= self.config.queues.n_queues:
                raise ValueError(
                    f"queue {queue_id} exceeds the configured "
                    f"{self.config.queues.n_queues} queues"
                )
            ch = QueueChannel(
                layout=self.mechanism.layout_for(queue_id),
                fault_plan=self.faults,
                trace=self.trace,
            )
            self.channels[queue_id] = ch
        return ch

    def _forensics_probe(self):
        """Channel snapshots + fault log + trace tail for post-mortems."""
        channels = [
            dump_channel(self.channels[qid]) for qid in sorted(self.channels)
        ]
        injections = list(self.faults.injections) if self.faults is not None else []
        trace_tail = (
            self.trace.tail_by_core(POST_MORTEM_TRACE_TAIL)
            if self.trace is not None
            else {}
        )
        return channels, injections, trace_tail

    def run(
        self,
        program: Program,
        max_steps: int = 50_000_000,
        wall_clock_budget: Optional[float] = None,
        checkpoint=None,
        abort=None,
    ) -> RunStats:
        """Co-simulate ``program`` to completion; returns per-thread stats.

        ``abort`` is an external-cancellation probe (``() -> Optional[str]``;
        a reason string stops the run with
        :class:`~repro.sim.kernel.SimulationAbortedError`), checked at the
        wall-clock watchdog's cadence — queue workers pass their lease
        fence here.  ``None`` (the default) costs nothing.

        ``wall_clock_budget`` bounds the *host* seconds the run may consume
        (None = unbounded): a run that outlives it raises
        :class:`~repro.sim.kernel.WallClockExceededError` with a full
        post-mortem attached — the campaign watchdog's in-process layer.

        ``checkpoint`` takes a :class:`~repro.sim.checkpoint.Checkpointer`
        that snapshots the whole machine every ``every`` simulated cycles at
        global safe points; ``None`` (the default) costs one branch per
        scheduler step.  Checkpointing never mutates simulation state, so
        stats and traces are identical either way.
        """
        if self._ran:
            raise RuntimeError(
                "a Machine accumulates cache/queue state; build a fresh one per run"
            )
        self._ran = True
        if program.n_threads > self.config.n_cores:
            raise ValueError(
                f"program {program.name!r} has {program.n_threads} threads "
                f"but the machine has only {self.config.n_cores} cores; "
                f"build it with MachineConfig(n_cores={program.n_threads}) "
                f"or config.copy(n_cores={program.n_threads}) to run it"
            )
        for queue_id, (producer, consumer) in program.queue_endpoints.items():
            ch = self.channel(queue_id)
            ch.producer_core = producer
            ch.consumer_core = consumer
        generators = [
            self.cores[i].run(thread.instructions())
            for i, thread in enumerate(program.threads)
        ]
        if checkpoint is not None:
            checkpoint.attach(self, program)
        started = time.perf_counter()
        engine = SimKernel(
            generators,
            max_steps=max_steps,
            context_probe=self._forensics_probe,
            trace=self.trace,
            wall_clock_budget=wall_clock_budget,
            checkpoint=checkpoint,
            abort=abort,
        )
        engine.run()
        stats = RunStats(
            threads=[self.cores[i].stats for i in range(program.n_threads)],
            host_seconds=time.perf_counter() - started,
        )
        # Host-side throughput observation (repro.obs): once per run,
        # outside the stepping loop, no-op unless obs is configured.
        observe_run(stats)
        return stats
