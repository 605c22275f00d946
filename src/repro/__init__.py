"""repro — reproduction of *Support for High-Frequency Streaming in CMPs*
(Rangan, Vachharajani, Stoler, Ottoni, August, Cai — MICRO 2006).

The package provides:

* :mod:`repro.sim` — a simplified cycle-level dual-core CMP timing model
  (in-order cores, co-simulation scheduler, stall-component accounting);
* :mod:`repro.mem` — the coherent memory hierarchy (L1/L2/L3, snoop MESI,
  split-transaction pipelined bus, OzQ, DRAM);
* :mod:`repro.core` — the paper's contribution: the streaming-communication
  design space (EXISTING software queues, MEMOPTI write-forwarding,
  SYNCOPTI occupancy counters + stream cache, HEAVYWT dedicated hardware);
* :mod:`repro.dswp` — a Decoupled Software Pipelining substrate (loop IR,
  dependence graphs, SCC partitioning, code generation) for any stage
  count K on K cores: an exact chain-decomposing partitioner and relay
  codegen over adjacent-pair queues;
* :mod:`repro.workloads` — the Table 1 benchmark suite rebuilt as
  calibrated IR kernels;
* :mod:`repro.harness` — one runnable experiment per table/figure, plus
  the pipeline-scaling study across the design space, with per-cell
  failure isolation for sweeps;
* :mod:`repro.faults` — seeded, deterministic fault injection (forward
  delay/drop, bus jitter, queue-slot stalls, ACK delays) for exercising
  the mechanisms' tolerance paths and the scheduler's post-mortems;
* :mod:`repro.trace` — cycle-level event tracing with zero overhead when
  disabled: Chrome-trace/CSV exporters, queue-occupancy and
  bus-utilization timelines, and the COMM-OP delay profiler;
* :mod:`repro.store` — the fleet layer: a content-addressed result store
  (cells dedupe across campaigns — simulation-as-cache), a
  shared-filesystem work queue with crash-safe leases for multi-host
  dispatch, and the ``repro serve`` async batch-query service.

Quickstart::

    from repro import Machine, baseline_config, build_pipelined

    program = build_pipelined("wc", trip_count=500)
    machine = Machine(baseline_config(), mechanism="syncopti_sc")
    stats = machine.run(program)
    print(stats.cycles, stats.consumer.components)

The names below resolve on first access (PEP 562 module ``__getattr__``), so
importing one subpackage — say ``repro.harness.campaign`` — loads only what
it needs, not the serve stack or the store.
"""

import importlib

__version__ = "1.0.0"

#: Public names by defining module; each module is imported on first access
#: to one of its names.
_EXPORTS = {
    "repro.core.design_points": (
        "DESIGN_POINTS", "OVERRIDE_KNOBS", "DesignPoint", "apply_overrides", "get_design_point",
        "with_bus_latency", "with_bus_width", "with_n_cores", "with_queue_depth",
        "with_transit_delay",
    ),
    "repro.core.mechanism": ("available_mechanisms", "create_mechanism"),
    "repro.dswp.codegen": ("lower_pipeline",),
    "repro.dswp.partition": ("partition_loop_k",),
    "repro.faults": ("FailureClass", "FaultKind", "FaultPlan", "FaultRule", "classify_outcome"),
    "repro.harness.campaign": (
        "CampaignCell", "CampaignLedger", "CampaignPolicy", "CampaignReport", "campaign_status",
        "execute_cell", "run_campaign", "run_cells",
    ),
    "repro.harness.experiments": (
        "ALL_EXPERIMENTS", "ExperimentResult", "pipeline_scaling", "run_all", "sweep",
    ),
    "repro.harness.runner": (
        "FailedRun", "PreemptedRun", "RunOutcome", "RunResult", "TimedOutRun", "run_benchmark",
        "run_single_threaded",
    ),
    "repro.sim.checkpoint": (
        "Checkpointer", "MachineSnapshot", "PreemptionRequested", "SnapshotCorruptError",
        "SnapshotError", "inspect_snapshot", "quarantine_snapshot", "read_snapshot",
        "recover_snapshot", "resume_run", "write_snapshot",
    ),
    "repro.store": (
        "ResultStore", "StoreCorruptError", "StoreError", "WorkQueue", "cell_digest",
        "run_worker",
    ),
    "repro.sim.config": ("MachineConfig", "baseline_config"),
    "repro.sim.forensics": ("PostMortem",),
    "repro.sim.kernel": (
        "DeadlockError", "SimKernel", "SimulationError", "SimulationLimitError",
        "WallClockExceededError",
    ),
    "repro.sim.machine": ("Machine",),
    "repro.sim.program": ("Program", "ThreadProgram"),
    "repro.sim.stats": ("RunStats", "ThreadStats", "geomean"),
    "repro.trace": (
        "COMM_OP_POINTS", "CommOpProfiler", "CommOpReport", "TraceBuffer", "TraceConfig",
        "TraceEvent", "bus_utilization", "check_bus_utilization", "check_occupancy",
        "measure_comm_ops", "occupancy_plateaus", "queue_occupancy", "to_chrome_trace",
        "write_chrome_trace", "write_csv",
    ),
    "repro.workloads.suite": (
        "BENCHMARK_ORDER", "BENCHMARKS", "build_partition", "build_pipelined",
        "build_single_threaded",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
