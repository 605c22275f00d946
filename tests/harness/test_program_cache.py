"""The per-process cache of lowered programs is exact and bounded.

Every run path takes its program from :mod:`repro.harness.programs`, which
lowers a (single-threaded or not, benchmark, trip count, stages) program
once, materializes its streams into tuples and shares them with every later
cell.  Sharing is exact only because nothing assigns to an emitted
``DynInst``; these tests pin that from the outside:

* **Exactness**: a cell run from a program that cells of other design
  points already ran equals the same cell run after :func:`programs.clear`
  and the same config run on the generator-backed program — fingerprint,
  every thread's statistics, and on traced runs the full event stream.
  Covered for a hand-partitioned (wc), a DSWP-partitioned pointer-chasing
  (mcf) and a nested-emitter (bzip2) benchmark, plus a fault-injected cell,
  a 3-stage pipeline cell and a checkpointed cell killed and resumed from a
  cached program.
* **Immutability**: a digest of every cached instruction's fields is
  unchanged after the scale-0.1 grid has run through the cache.
* **Bound**: with the budget lowered, the cache never holds more than it
  over a mixed sweep, and an over-budget program runs uncached with the
  generator path's fingerprint.
"""

import hashlib
import random
import sys
import threading

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.harness import programs
from repro.harness.campaign import CampaignCell, cell_checkpoint_path, cell_config, execute_cell
from repro.harness.experiments import EXPERIMENT_TRIPS
from repro.harness.runner import PreemptedRun, run_benchmark
from repro.sim.checkpoint import Checkpointer, recover_snapshot
from repro.sim.machine import Machine
from repro.workloads.suite import BENCHMARK_ORDER

#: The Figure 7/9/12 grid's design points.
POINTS = ("HEAVYWT", "SYNCOPTI", "SYNCOPTI_SC_Q64", "EXISTING", "MEMOPTI")

TRIPS = 64


@pytest.fixture(autouse=True)
def cold_cache():
    programs.clear()
    yield
    programs.clear()


@pytest.fixture
def lowerings(monkeypatch):
    """Counts the programs lowered from scratch (cache misses)."""
    calls = []
    real = programs._lower

    def counted(*key):
        calls.append(key)
        return real(*key)

    monkeypatch.setattr(programs, "_lower", counted)
    return calls


def _cells(bench, trips=TRIPS):
    cells = [CampaignCell(benchmark=bench, design_point=p, trip_count=trips) for p in POINTS]
    return cells + [CampaignCell(benchmark=bench, kind="single", trip_count=trips)]


def _observed(outcome):
    return outcome.fingerprint(), [t.canonical() for t in outcome.stats.threads]


def _generator_run(cell):
    """The cell on a program fresh from the partitioner and codegen."""
    cfg, point = cell_config(cell)
    program = programs._lower(cell.kind, cell.benchmark, cell.trip_count, cell.stages)
    return Machine(cfg, mechanism=point.mechanism).run(program)


def _trace_stream(result):
    return [
        (e.seq, e.kind, e.ts, e.core, e.queue, e.dur, tuple(sorted(e.args.items())))
        for e in result.trace.events
    ]


def _inst_digest(lowered) -> str:
    digest = hashlib.sha256()
    for thread in lowered.program.threads:
        for inst in thread.builder():
            fields = (inst.kind.value, inst.dest, inst.srcs, inst.addr, inst.queue,
                      inst.latency, inst.is_overhead, inst.tag)
            digest.update(repr(fields).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bench", ["wc", "mcf", "bzip2"])
def test_cached_cells_equal_cold_and_generator_runs(bench, lowerings):
    cells = _cells(bench)
    shared = [execute_cell(cell) for cell in cells]
    # One pipelined and one single-threaded lowering served all six cells.
    assert lowerings == [("benchmark", bench, TRIPS, None), ("single", bench, TRIPS, None)]
    for cell, outcome in zip(cells, shared):
        assert outcome.ok, outcome
        programs.clear()
        assert _observed(execute_cell(cell)) == _observed(outcome), cell.key()
        stats = _generator_run(cell)
        assert (stats.fingerprint(), [t.canonical() for t in stats.threads]) == _observed(
            outcome
        ), cell.key()


@pytest.mark.parametrize("bench", ["wc", "mcf", "bzip2"])
def test_traced_cached_runs_emit_the_cold_event_stream(bench):
    warm = {point: run_benchmark(bench, point, TRIPS, trace=True) for point in POINTS}
    for point in POINTS:
        programs.clear()
        cold = run_benchmark(bench, point, TRIPS, trace=True)
        assert _trace_stream(warm[point]) == _trace_stream(cold), point
        assert warm[point].fingerprint() == cold.fingerprint()


def test_fault_injected_cell_from_a_cached_program():
    plan = FaultPlan(seed=7, rules=(FaultRule(FaultKind.BUS_JITTER, magnitude=40.0,
                                              probability=0.5),))
    plain = CampaignCell(benchmark="mcf", design_point="EXISTING", trip_count=TRIPS)
    faulted = CampaignCell(benchmark="mcf", design_point="EXISTING", trip_count=TRIPS,
                           fault_plan=plan)
    assert execute_cell(plain).ok
    warm = execute_cell(faulted)  # the program is cached by now
    programs.clear()
    cold = execute_cell(faulted)
    assert _observed(warm) == _observed(cold)
    assert warm.fingerprint() != execute_cell(plain).fingerprint()


def test_pipeline_cell_from_a_cached_program(lowerings):
    cells = [
        CampaignCell(benchmark="wc", design_point=point, kind="pipeline", stages=3,
                     trip_count=TRIPS)
        for point in ("EXISTING", "HEAVYWT")
    ]
    warm = [execute_cell(cell) for cell in cells]
    assert lowerings == [("pipeline", "wc", TRIPS, 3)]
    for cell, outcome in zip(cells, warm):
        programs.clear()
        cold = execute_cell(cell)
        assert _observed(outcome) == _observed(cold)
        assert outcome.extras["hop_delays"] == cold.extras["hop_delays"]
        assert _trace_stream(outcome) == _trace_stream(cold)


def test_two_stage_program_is_one_entry_for_either_kind(lowerings):
    # A "benchmark" cell runs the two-stage pipeline: a pipeline cell at
    # stages=2 runs the same program, so it takes the same entry.
    first = programs.lowered_program("benchmark", "wc", 300, None)
    assert programs.lowered_program("pipeline", "wc", 300, 2) is first
    assert lowerings == [("benchmark", "wc", 300, None)]
    assert programs._held == first.size == 6_900


def test_killed_cell_resumes_from_a_cached_program(tmp_path):
    cell = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=400)
    never_crashed = execute_cell(cell)
    path = cell_checkpoint_path(str(tmp_path), cell)
    checkpointer = Checkpointer(every=5000, path=path)

    def preempt_on_second(snapshot, _path):
        if checkpointer.snapshots_taken >= 2:
            checkpointer.request_preempt()

    checkpointer.on_snapshot = preempt_on_second
    assert isinstance(execute_cell(cell, checkpoint=checkpointer), PreemptedRun)
    snapshot = recover_snapshot(path).snapshot
    assert snapshot is not None and snapshot.cycle > 0
    # The resume replays the cached program's streams up to the cursors.
    resumed = execute_cell(cell, resume_from=snapshot)
    assert resumed.extras["resumed_from_cycle"] == snapshot.cycle
    assert _observed(resumed) == _observed(never_crashed)


# ----------------------------------------------------------------------
# Immutability
# ----------------------------------------------------------------------


def test_no_run_writes_a_cached_instruction(lowerings):
    cells = []
    for bench in BENCHMARK_ORDER:
        trips = max(32, int(EXPERIMENT_TRIPS[bench] * 0.1))
        cells += _cells(bench, trips)
    lowered = {
        (c.kind, c.benchmark, c.trip_count, None): programs.lowered_program(
            c.kind, c.benchmark, c.trip_count
        )
        for c in cells
    }
    assert all(entry.size > 0 for entry in lowered.values())
    assert programs._held == sum(e.size for e in lowered.values())
    before = {key: _inst_digest(entry) for key, entry in lowered.items()}
    for cell in cells:
        assert execute_cell(cell).ok
    assert len(lowerings) == len(lowered)  # every cell ran a cached program
    assert {key: _inst_digest(entry) for key, entry in lowered.items()} == before


# ----------------------------------------------------------------------
# Bound
# ----------------------------------------------------------------------


def test_cache_never_exceeds_its_budget(monkeypatch, lowerings):
    monkeypatch.setattr(programs, "CACHE_BUDGET", 2000)
    sweep = [
        CampaignCell(benchmark=bench, design_point=point, trip_count=trips)
        for bench, trips in (("wc", 48), ("fir", 64), ("mcf", 40), ("wc", 48), ("fft2", 40))
        for point in ("HEAVYWT", "EXISTING")
    ]
    sweep += [CampaignCell(benchmark=b, kind="single", trip_count=48) for b in ("wc", "fir")]
    sweep.append(CampaignCell(benchmark="wc", design_point="SYNCOPTI", kind="pipeline",
                              stages=3, trip_count=48))
    for cell in sweep:
        assert execute_cell(cell).ok
        held = programs._held
        assert 0 < held <= programs.CACHE_BUDGET
        assert held == sum(e.size for e in programs._entries.values())
    # wc's 1,104 instructions were evicted by fir's and mcf's, then lowered again.
    assert lowerings.count(("benchmark", "wc", 48, None)) == 2


def test_over_budget_program_runs_uncached(monkeypatch, lowerings):
    monkeypatch.setattr(programs, "CACHE_BUDGET", 2000)
    cell = CampaignCell(benchmark="wc", design_point="SYNCOPTI", trip_count=200)
    lowered = programs.lowered_program("benchmark", "wc", 200)
    assert lowered.size == 0 and programs._held == 0
    outcome = execute_cell(cell)
    assert programs._held == 0
    assert len(lowerings) == 2  # lowered again for the second run, as without a cache
    stats = _generator_run(cell)
    assert outcome.fingerprint() == stats.fingerprint()


def test_threads_share_the_cache_without_losing_count(monkeypatch):
    """In-process queue workers are threads: concurrent lookups, misses and
    evictions keep the count exact and hand out the right programs."""
    monkeypatch.setattr(programs, "CACHE_BUDGET", 3000)
    keys = [("benchmark", bench, trips, None) for bench in ("wc", "fir") for trips in (32, 40, 48)]
    expected = {key: _inst_digest(programs.lowered_program(*key)) for key in keys}
    programs.clear()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(40):
                key = rng.choice(keys)
                assert _inst_digest(programs.lowered_program(*key)) == expected[key]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    held = programs._held
    assert held == sum(e.size for e in programs._entries.values()) <= programs.CACHE_BUDGET
