"""The zero-overhead contract for disabled tracing.

Two halves:

* **Structural** — with ``MachineConfig.trace`` unset, no trace state is
  allocated anywhere: the machine, scheduler, cores, memory system, bus and
  fault plan all hold ``None``, so every instrumentation site reduces to a
  single predictable ``if trace is not None`` branch.
* **Micro-benchmark** — bound the cost of those guard branches against a
  real disabled run: (guard executions x measured per-branch cost) must be
  well under the 3% wall-clock budget.  Guard executions are counted from
  an *enabled* twin run (every recorded or filtered event is one guarded
  site visit), and the per-branch cost is timed directly, so the bound does
  not depend on comparing two noisy wall-clock samples.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.runner import run_benchmark
from repro.sim.machine import Machine
from repro.trace.buffer import TraceConfig
from repro.workloads.suite import build_pipelined

from tests.conftest import simple_stream_program


class TestStructuralZeroOverhead:
    def test_disabled_machine_allocates_no_trace_state(self, config):
        assert config.trace is None
        machine = Machine(config, mechanism="existing")
        machine.run(simple_stream_program(n_items=8))
        assert machine.trace is None
        assert machine.mem.trace is None
        assert machine.mem.bus.trace is None

    def test_trace_none_is_the_only_off_switch(self, config):
        """Any ``TraceConfig`` builds a buffer; ``trace=None`` builds none."""
        with pytest.raises(TypeError):
            TraceConfig(enabled=False)
        cfg = config.copy(trace=TraceConfig(capacity=16, categories=("bus",)))
        assert Machine(cfg, mechanism="existing").trace is not None

    def test_run_result_trace_is_none_when_disabled(self):
        result = run_benchmark("wc", "EXISTING", trip_count=20)
        assert result.trace is None

    def test_run_result_trace_present_when_enabled(self):
        result = run_benchmark("wc", "EXISTING", trip_count=20, trace=True)
        assert result.trace is not None
        assert len(result.trace) > 0


class TestGuardMicroBenchmark:
    TRIPS = 200

    def _disabled_wall_clock(self, point: str) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_benchmark("wc", point, trip_count=self.TRIPS)
            best = min(best, time.perf_counter() - t0)
        return best

    def _guard_visits(self, point: str) -> int:
        # Enabled, unfiltered twin run: every emitted event was one guarded
        # instrumentation-site visit in the disabled run too.
        result = run_benchmark(
            "wc", point, trip_count=self.TRIPS,
            trace=TraceConfig(capacity=1 << 20),
        )
        return result.trace.emitted + result.trace.filtered

    @staticmethod
    def _per_branch_cost(samples: int = 200_000) -> float:
        sink = None
        t0 = time.perf_counter()
        hits = 0
        for _ in range(samples):
            if sink is not None:  # the disabled-path guard, verbatim
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits == 0
        return elapsed / samples

    def test_disabled_guards_fit_the_wall_clock_budget(self):
        for point in ("EXISTING", "SYNCOPTI"):
            wall = self._disabled_wall_clock(point)
            visits = self._guard_visits(point)
            assert visits > 0
            overhead = visits * self._per_branch_cost()
            # The acceptance budget is 3%; require comfortable headroom so
            # the test stays stable on slow CI machines.
            assert overhead < 0.03 * wall, (
                f"{point}: {visits} guard visits cost ~{overhead * 1e3:.2f}ms "
                f"against a {wall * 1e3:.1f}ms disabled run"
            )


class TestDisabledSweepParity:
    def test_disabled_run_is_not_slower_than_enabled(self):
        # Directional sanity on a real workload: recording strictly adds
        # work, so the disabled path must win (generous noise margin).
        program = build_pipelined("wc", 300)

        def run_once(trace_cfg):
            from repro.core.design_points import get_design_point

            dp = get_design_point("EXISTING")
            cfg = dp.build_config()
            if trace_cfg is not None:
                cfg = cfg.copy(trace=trace_cfg)
            machine = Machine(cfg, mechanism=dp.mechanism)
            t0 = time.perf_counter()
            machine.run(program)
            return time.perf_counter() - t0

        disabled = min(run_once(None) for _ in range(3))
        enabled = min(
            run_once(TraceConfig(capacity=1 << 20)) for _ in range(3)
        )
        assert disabled < enabled * 1.25
