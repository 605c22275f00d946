"""The three benchmark workloads and the metrics they report.

* ``grid-event`` — the Figure 7/9/12 grid (54 cells at EXPERIMENT_TRIPS),
  run serially in-process on the ``event`` kernel through ``execute_cell``.
  No pool, no store, the indexed bus calendar: the simulator's compute
  layers do nearly all the work.
* ``campaign-reference`` — the same grid on the default ``reference``
  kernel: once through ``run_campaign`` with two pool workers, a JSONL
  ledger and a fresh result store (cold pass), then five times against the
  populated store, a new ledger each (warm passes: every cell must be a
  hit); then timed like ``grid-event``, serially in-process.
* ``serve-mixed`` — ``repro serve --jobs 1`` in its own process over a
  store pre-warmed with a seeded cell universe, driven closed-loop by two
  client threads: Zipf-distributed hits (some with ``"speedup": true``),
  a small share of never-seen cells on the default kernel, and batches
  repeating one fresh cell to exercise coalescing.

Every workload checks each result against the golden fingerprint table and
counts disagreements as failures.  Untraced runs report the end-to-end
metrics; traced runs (``trace=True``) rerun the work under
:class:`tracer.Tracer` and report the per-layer metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import cells
from cells import GoldenCheck, grid_cells, label, load_golden, make_cell, scaled_trips
from repro.harness.campaign import CampaignPolicy, execute_cell, run_campaign
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOST = "127.0.0.1"

#: Pool workers of the campaign workload (the 2-vCPU reference host's nproc).
CAMPAIGN_JOBS = 2
#: Warm passes per campaign cycle.  One takes ~25 ms, short enough for a
#: single scheduling hiccup to double it, so ``warm_rerun_ms`` is the
#: fastest of several.
WARM_PASSES = 5
#: ``repro serve --jobs``: one pool worker, so misses queue behind each other.
SERVE_JOBS = 1
#: Closed-loop client connections of the serve workload (= nproc): at most
#: two requests are ever outstanding, so no backlog can grow.
SERVE_CONNECTIONS = 2

# Serve traffic.  No request log of ``repro serve`` exists, so the mix below
# is an assumption, not observed traffic; each constant says what its value
# is chosen to guarantee (README.md, "serve-mixed traffic").

#: Requests per pass: a pass of a few seconds, long enough to average over
#: the host's second-scale speed flips, while a 30 s run still has several
#: passes to take the fastest of.
REQUESTS_PER_PASS = 3000
#: Cells in the pre-warmed universe: the store holds them plus their
#: single-threaded baselines.  Assumed; small enough that pre-warming (not
#: timed) stays a few seconds.
UNIVERSE_SIZE = 32
#: Zipf exponent of hit popularity.  Assumed (a skewed mix); at 1.1 over 32
#: cells the most popular takes 28% of hits and the least 0.6%, about 18
#: requests a pass, so every pre-warmed entry is read in every pass.
ZIPF_S = 1.1
#: Share of hits that also ask for the single-threaded speedup and so resolve
#: a second cell.  Assumed; at 0.2 two-cell hits are frequent enough to weigh
#: in both hit percentiles while one-cell hits stay the common case.
SPEEDUP_SHARE = 0.2
#: Coalescing batches per pass, and copies of one fresh cell in each: one
#: simulation answers ``COALESCE_FANOUT`` queries.  Assumed.
COALESCE_BATCHES = 4
COALESCE_FANOUT = 4
#: The miss share is sized from the one pool worker's load: a never-seen cell
#: takes about MISS_SERVICE_S of simulation and a pass about SERVE_PASS_S
#: (mean ``sim.run`` span and untraced pass wall of one traced run, seed 1,
#: on the 2-vCPU reference host); the worker may be busy for at most
#: POOL_BUSY_MAX of a pass.  That leaves it idle half the time, so a miss
#: waits behind another simulation only sometimes: enough queueing for
#: ``miss_p90_ms`` to show it, never a standing queue.
MISS_SERVICE_S = 0.056
SERVE_PASS_S = 3.9
POOL_BUSY_MAX = 0.5
#: Simulations per pass (34): single never-seen cells plus the batches.
SIMS_PER_PASS = int(POOL_BUSY_MAX * SERVE_PASS_S / MISS_SERVICE_S)

#: Serve times are reported at a reference speed.  After every
#: CHUNK_REQUESTS requests the client times ECHO_ROUND_TRIPS round trips to
#: ``echo_server.py`` and scales the chunk's times by ECHO_REF_S over their
#: mean: the times on a host where that round trip takes ECHO_REF_S.
CHUNK_REQUESTS = 100
ECHO_ROUND_TRIPS = 10
ECHO_REF_S = 0.0003

#: No run may start a pass that would end later than this (exit within 180 s).
HARD_STOP_S = 120.0
#: Iterations of the host-speed probe loop (about 10 ms on the reference host).
PROBE_LOOP = 40_000
#: Seconds the probe loop takes on the reference host: serial grid cell
#: times are reported at that speed.
PROBE_REF_S = 0.010

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "max_rss_mb": "MB",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "sim_op_p90_ms": "ms",
}

#: Per-layer metrics: name -> unit.  Every workload reports all of them; a
#: layer a workload does not reach reads 0.
PER_LAYER = {
    "codegen.self_s": "s",
    "codegen.insts": "count",
    "core.self_s": "s",
    "core.insts": "count",
    "stats.self_s": "s",
    "stats.calls": "count",
    "mech.self_s": "s",
    "mech.comm_ops": "count",
    "mem.self_s": "s",
    "mem.accesses": "count",
    "bus.self_s": "s",
    "bus.transfers": "count",
    "kernel.self_s": "s",
    "bus.calendar_s": "s",
    "bus.calendar_calls": "count",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "sim.cycles": "cycles",
    "sim.insts": "count",
    "sim.comm_insts": "count",
    "sim.queue_stall_cycles": "cycles",
    "campaign.pool_util": "fraction",
    "campaign.overhead_s": "s",
    "campaign.retries": "count",
    "ledger.appends": "count",
    "ledger.append_s": "s",
    "store.gets": "count",
    "store.get_s": "s",
    "store.puts": "count",
    "store.put_s": "s",
    "io.fsyncs": "count",
    "io.fsync_s": "s",
    "serve.hit_ratio": "fraction",
    "serve.coalesce_fanin": "ratio",
    "serve.lookup_s": "s",
    "serve.query_self_s": "s",
    "serve.dispatch_wait_s": "s",
    "serve.publish_s": "s",
    "serve.pool_busy": "fraction",
}

#: Per-layer self times of one traced simulator pass, by tracer layer.  With
#: ``other`` (time in no layer) they sum to ``trace.wall_s``.
SELF_TIME_METRICS = {
    "codegen": "codegen.self_s",
    "core": "core.self_s",
    "stats": "stats.self_s",
    "mech": "mech.self_s",
    "mem": "mem.self_s",
    "bus": "bus.self_s",
    "calendar": "bus.calendar_s",
    "kernel": "kernel.self_s",
    "other": "other.self_s",
}

#: The issue-level metrics each workload prints by name beside the
#: end-to-end ones: name -> unit.
REPORTED = {
    "grid-event": {
        "setup_s": "s", "max_rss_mb": "MB", "error_rate": "fraction",
        "sim_kips": "kinstr/s", "paper_err_pct": "%",
    },
    "campaign-reference": {
        "setup_s": "s", "max_rss_mb": "MB", "error_rate": "fraction",
        "cells_per_min": "cells/min", "warm_rerun_ms": "ms",
    },
    "serve-mixed": {
        "setup_s": "s", "max_rss_mb": "MB", "error_rate": "fraction",
        "hit_p50_ms": "ms", "hit_p99_ms": "ms", "miss_p50_ms": "ms",
        "miss_p90_ms": "ms", "qps": "queries/s",
    },
}


@dataclass
class Sizes:
    """How much work one run does; the self-test shrinks it."""

    grid_scale: float = 1.0
    setup_repeats: int = len(cells.WARMUP_CELLS)
    min_passes: int = 2
    universe_size: int = UNIVERSE_SIZE
    requests_per_pass: int = REQUESTS_PER_PASS
    misses_per_pass: int = SIMS_PER_PASS - COALESCE_BATCHES
    coalesce_batches: int = COALESCE_BATCHES


FULL = Sizes()


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: END_TO_END (untraced) or PER_LAYER (traced) values.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: REPORTED values of the workload (untraced runs).
    report: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_loop_s() -> float:
    """Wall seconds one fixed pure-Python loop takes: the host's speed now.

    The shared host's cores flip between two speeds within seconds and the
    mix drifts over minutes; this loop slows by the same factor as a serial
    simulation (1.65x between the two), so a cell timed next to it can be
    scaled to the reference speed.  Work spread over several processes, and
    interpreter start-up, do not track it, so only grid-event cells use it
    (README.md).
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOP):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += i % 7
    return time.perf_counter() - t0


def run_passes(seconds: float, min_passes: int, one_pass: Callable[[int], None],
               max_passes: Optional[int] = None) -> List[float]:
    """Run passes until the next one would overrun ``seconds``; wall per pass."""
    durations: List[float] = []
    start = time.perf_counter()
    while max_passes is None or len(durations) < max_passes:
        t0 = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t0)
        projected = time.perf_counter() - start + durations[-1]
        if projected > HARD_STOP_S:
            break
        if len(durations) >= min_passes and projected > seconds:
            break
    return durations


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its first timed
    operation."""
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads; "
        f"workloads.prepare({workload!r}); print('ready', flush=True)"
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env()
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def setup_note(setups: List[float]) -> str:
    return f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; setup_s is their median"


def prepare(workload: str) -> None:
    """What a run builds before its first timed operation (set-up probe body)."""
    if workload == "grid-event":
        grid_cells("event")
    elif workload == "campaign-reference":
        grid_cells("reference")


def max_rss_mb() -> float:
    """Largest peak RSS of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def sim_totals(results) -> Dict[str, float]:
    """Simulated-model totals over a list of RunResults (exact, host-free)."""
    totals = {"sim.cycles": 0, "sim.insts": 0, "sim.comm_insts": 0, "sim.queue_stall_cycles": 0}
    for result in results:
        totals["sim.cycles"] += result.cycles
        for t in result.stats.threads:
            totals["sim.insts"] += t.app_instructions
            totals["sim.comm_insts"] += t.comm_instructions
            totals["sim.queue_stall_cycles"] += t.queue_full_stall + t.queue_empty_stall
    return totals


def run_cells_checked(cell_list, check: GoldenCheck, on_cell=None) -> Tuple[list, int]:
    """``execute_cell`` each cell; returns (results, failures vs golden)."""
    results, failed = [], 0
    for cell in cell_list:
        t0 = time.perf_counter()
        outcome = execute_cell(cell)
        if on_cell is not None:
            on_cell(time.perf_counter() - t0)
        if not outcome.ok:
            failed += 1
            check.mismatches.append(label(cell))
            continue
        if not check.fingerprint(label(cell), outcome.fingerprint()):
            failed += 1
        # Keep the stats, not the machine: memory stays one cell's worth.
        outcome.machine = outcome.trace = None
        results.append(outcome)
    return results, failed


def traced_cells(cell_list, check: GoldenCheck) -> Tuple[Dict[str, float], int]:
    """An untraced then a traced in-process pass; per-layer metrics."""
    t0 = time.perf_counter()
    _, failed_u = run_cells_checked(cell_list, check)
    untraced = time.perf_counter() - t0
    with Tracer().install_simulator() as tracer:
        t0 = time.perf_counter()
        tracer.reset()
        results, failed_t = run_cells_checked(cell_list, check)
        tracer.flush()
        wall = time.perf_counter() - t0
    metrics = layer_metrics(tracer, results)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = wall / untraced
    return metrics, failed_u + failed_t


def layer_metrics(tracer: Tracer, results) -> Dict[str, float]:
    """PER_LAYER values of one traced pass (layers it did not reach read 0)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = tracer.self_s[layer]
    for key in ("codegen.insts", "stats.calls", "mech.comm_ops", "mem.accesses",
                "bus.transfers", "bus.calendar_calls"):
        metrics[key] = tracer.counts.get(key, 0)
    metrics.update(sim_totals(results))
    metrics["core.insts"] = metrics["sim.insts"] + metrics["sim.comm_insts"]
    return metrics


def store_metrics(counts: Dict[str, int], call_s: Dict[str, float]) -> Dict[str, float]:
    return {
        "ledger.appends": counts.get("ledger.append", 0),
        "ledger.append_s": call_s.get("ledger.append", 0.0),
        "store.gets": counts.get("store.get", 0),
        "store.get_s": call_s.get("store.get", 0.0),
        "store.puts": counts.get("store.put", 0),
        "store.put_s": call_s.get("store.put", 0.0),
        "io.fsyncs": counts.get("io.fsync", 0),
        "io.fsync_s": call_s.get("io.fsync", 0.0),
    }


def serial_grid(workload: str, grid, check: GoldenCheck, seconds: float,
                sizes: Sizes, min_passes: int) -> Tuple[Outcome, list]:
    """Set-ups, then serial in-process passes over ``grid`` for ``seconds``:
    the end-to-end metrics at the reference speed, and the last pass's
    results."""
    setups = [probe_setup(workload) for _ in range(sizes.setup_repeats)]
    cell_ms: List[float] = []  # at the reference host speed
    state = {"failed": 0, "results": []}

    def on_cell(elapsed: float) -> None:
        cell_ms.append(1e3 * elapsed * PROBE_REF_S / probe_loop_s())

    def one_pass(_: int) -> None:
        results, failed = run_cells_checked(grid, check, on_cell=on_cell)
        state["failed"] += failed
        state["results"] = results

    durations = run_passes(seconds, min_passes, one_pass)
    n = len(grid)
    typical_ms = [statistics.median(cell_ms[i::n]) for i in range(n)]
    pass_s = sum(typical_ms) / 1e3
    out = Outcome(attempted=n * len(durations), failed=state["failed"])
    out.metrics = {
        "setup_s": statistics.median(setups),
        "max_rss_mb": max_rss_mb(),
        "pass_s": pass_s,
        "op_p50_ms": percentile(typical_ms, 50),
        "sim_op_p90_ms": percentile(typical_ms, 90),
    }
    out.report = {"setup_s": out.metrics["setup_s"], "max_rss_mb": out.metrics["max_rss_mb"]}
    out.notes.append(
        f"{len(durations)} serial passes of {n} cells; wall-clock passes "
        f"{', '.join(f'{t:.2f}' for t in durations)} s, {pass_s:.3f} s at reference speed"
    )
    out.notes.append(setup_note(setups))
    return out, state["results"]


# ----------------------------------------------------------------------
# grid-event
# ----------------------------------------------------------------------


def grid_event(seed: int, seconds: float, trace: bool, workdir: str,
               sizes: Sizes = FULL, golden_path: str = cells.GOLDEN_PATH) -> Outcome:
    check = GoldenCheck(load_golden(golden_path))
    grid = grid_cells("event", sizes.grid_scale)
    if trace:
        metrics, failed = traced_cells(grid, check)
        return Outcome(attempted=2 * len(grid), failed=failed, metrics=metrics)

    out, results = serial_grid("grid-event", grid, check, seconds, sizes, sizes.min_passes)
    insts = sum(t.total_instructions for r in results for t in r.stats.threads)
    out.report["error_rate"] = out.failed / out.attempted
    out.report["sim_kips"] = insts / out.metrics["pass_s"] / 1e3
    if len(results) == len(grid):
        ratios = cells.paper_ratios({label(c): r.cycles for c, r in zip(grid, results)},
                                    sizes.grid_scale)
        out.report["paper_err_pct"] = cells.paper_err_pct(ratios)
        for name, value in ratios.items():
            out.notes.append(
                f"ratio {name} = {value:.3f} (paper {cells.PAPER_RATIOS[name]})"
            )
    out.notes.append(f"{insts} simulated instructions per pass")
    out.notes += check.notes()
    return out


# ----------------------------------------------------------------------
# campaign-reference
# ----------------------------------------------------------------------


def _campaign_cycle(grid, workdir: str, check: GoldenCheck) -> Dict[str, object]:
    """One cold pass (fresh store + ledger), then WARM_PASSES warm passes
    (a new ledger each)."""
    store = os.path.join(workdir, "store")
    cold_ledger = os.path.join(workdir, "cold.jsonl")
    policy = CampaignPolicy(jobs=CAMPAIGN_JOBS)
    t0 = time.perf_counter()
    cold = run_campaign(grid, policy, ledger_path=cold_ledger, store=store)
    cold_s = time.perf_counter() - t0
    warm, warm_s = [], []
    for i in range(WARM_PASSES):
        warm_ledger = os.path.join(workdir, f"warm-{i}.jsonl")
        t0 = time.perf_counter()
        warm.append(run_campaign(grid, policy, ledger_path=warm_ledger, store=store))
        warm_s.append(time.perf_counter() - t0)
    failed = 0
    for report, must_hit in [(cold, False)] + [(w, True) for w in warm]:
        for cell in grid:
            outcome = report.outcomes.get(cell.key())
            if outcome is None or not outcome.ok:
                failed += 1
                check.mismatches.append(label(cell))
            elif not check.fingerprint(label(cell), outcome.fingerprint()):
                failed += 1
            elif must_hit and cell.key() not in report.store_hits:
                failed += 1
    host_s = sum(o.stats.host_seconds for o in cold.outcomes.values() if o.ok)
    shutil.rmtree(store, ignore_errors=True)
    return {
        "cold_s": cold_s, "warm_s": min(warm_s), "failed": failed,
        "host_s": host_s, "retries": cold.retries + sum(w.retries for w in warm),
        "attempted": len(grid) * (1 + WARM_PASSES),
    }


def campaign_reference(seed: int, seconds: float, trace: bool, workdir: str,
                       sizes: Sizes = FULL, golden_path: str = cells.GOLDEN_PATH) -> Outcome:
    check = GoldenCheck(load_golden(golden_path))
    grid = grid_cells("reference", sizes.grid_scale)
    if trace:
        with Tracer().install_store() as parent:
            cycle = _campaign_cycle(grid, workdir, check)
        metrics, failed = traced_cells(grid, check)
        metrics.update(store_metrics(parent.counts, parent.call_s))
        metrics["campaign.pool_util"] = cycle["host_s"] / (cycle["cold_s"] * CAMPAIGN_JOBS)
        metrics["campaign.overhead_s"] = cycle["cold_s"] - cycle["host_s"] / CAMPAIGN_JOBS
        metrics["campaign.retries"] = cycle["retries"]
        return Outcome(attempted=cycle["attempted"] + 2 * len(grid),
                       failed=failed + cycle["failed"], metrics=metrics)

    # The pool's two workers fill both vCPUs, and no probe beside them tracks
    # their speed, so the cycle through the pool, ledger and store is checked
    # and reported by name, while the declared metrics time the same cells
    # serially at the reference speed (README.md, "Host noise").  The cycle
    # counts against ``seconds``; a serial pass follows in any case.
    t0 = time.perf_counter()
    cycle = _campaign_cycle(grid, workdir, check)
    left = seconds - (time.perf_counter() - t0)
    out, _ = serial_grid("campaign-reference", grid, check, left, sizes, 1)
    out.attempted += cycle["attempted"]
    out.failed += cycle["failed"]
    out.report["error_rate"] = out.failed / out.attempted
    out.report["cells_per_min"] = 60.0 * len(grid) / cycle["cold_s"]
    out.report["warm_rerun_ms"] = 1e3 * cycle["warm_s"]
    out.notes.append(
        f"campaign cycle, {CAMPAIGN_JOBS} workers: cold pass {cycle['cold_s']:.2f} s, "
        f"fastest of {WARM_PASSES} warm passes {1e3 * cycle['warm_s']:.1f} ms, "
        f"retries {cycle['retries']} (wall-clock)"
    )
    out.notes += check.notes()
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One POST /query: its queries and the golden keys that check them."""

    queries: List[Dict[str, object]]
    keys: List[str]
    #: Golden key of the speedup baseline per query (None: no speedup).
    baselines: List[Optional[str]]
    expect_hit: bool


def _universe(rng: random.Random, size: int) -> List[Tuple[str, str, float, Optional[str]]]:
    """Seeded (benchmark, point, scale, kernel) cells, most popular first."""
    picks = rng.sample(cells.universe_candidates(), size)
    return [(b, p, s, rng.choice(("event", None))) for b, p, s in picks]


def _universe_cells(universe) -> List:
    out = {}
    for bench, point, scale, kernel in universe:
        trips = scaled_trips(bench, scale)
        for name in (point, "SINGLE"):
            cell = make_cell(bench, name, trips, kernel or "reference")
            out[cell.key()] = cell
    return list(out.values())


def _miss_order(rng: random.Random) -> List[Tuple[str, str, int]]:
    """The miss pool in seeded order, stratified: every (benchmark, point)
    appears once per trip count before any appears again."""
    pool = cells.miss_pool()
    block = len(pool) // len(cells.MISS_TRIPS)
    order = []
    for start in range(0, len(pool), block):
        chunk = pool[start:start + block]
        rng.shuffle(chunk)
        order.extend(chunk)
    return order


def _hit_request(rng: random.Random, universe, weights) -> Request:
    bench, point, scale, kernel = rng.choices(universe, weights=weights)[0]
    query: Dict[str, object] = {"benchmark": bench, "design_point": point, "scale": scale}
    if kernel is not None:
        query["kernel"] = kernel
    trips = scaled_trips(bench, scale)
    baseline = None
    if rng.random() < SPEEDUP_SHARE:
        query["speedup"] = True
        baseline = f"{bench}/SINGLE/{trips}"
    return Request([query], [f"{bench}/{point}/{trips}"], [baseline], expect_hit=True)


def _miss_request(cell: Tuple[str, str, int], copies: int) -> Request:
    bench, point, trips = cell
    query = {"benchmark": bench, "design_point": point, "trip_count": trips}
    key = f"{bench}/{point}/{trips}"
    return Request([dict(query) for _ in range(copies)], [key] * copies,
                   [None] * copies, expect_hit=False)


def build_pass(rng: random.Random, universe, misses: List, sizes: Sizes) -> List[Request]:
    """One pass's fixed request list; consumes fresh cells from ``misses``."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(universe))]
    n_fresh = sizes.misses_per_pass + sizes.coalesce_batches
    requests = [_miss_request(misses.pop(0), 1) for _ in range(sizes.misses_per_pass)]
    requests += [_miss_request(misses.pop(0), COALESCE_FANOUT)
                 for _ in range(sizes.coalesce_batches)]
    requests += [_hit_request(rng, universe, weights)
                 for _ in range(sizes.requests_per_pass - n_fresh)]
    rng.shuffle(requests)
    return requests


def check_answer(request: Request, status: Optional[int], doc, golden) -> Tuple[bool, bool]:
    """(ok, answered entirely from the store) for one response."""
    if status != 200 or not isinstance(doc, dict) or not doc.get("ok"):
        return False, False
    answers = doc.get("answers") or []
    if len(answers) != len(request.queries):
        return False, False
    hit = all(a.get("hit") and a.get("baseline_hit", True) for a in answers)
    ok = not (request.expect_hit and not hit)
    for answer, key, base in zip(answers, request.keys, request.baselines):
        ok = ok and answer.get("ok") is True
        ok = ok and key in golden and answer.get("fingerprint") == golden[key]["fingerprint"]
        if base is not None:
            ok = ok and base in golden and answer.get("baseline_cycles") == golden[base]["cycles"]
    return ok, hit


def _post(port: int, body: bytes):
    conn = http.client.HTTPConnection(HOST, port, timeout=120)
    try:
        conn.request("POST", "/query", body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data)
    finally:
        conn.close()


def _get(port: int, path: str):
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def drive(port: int, requests: List[Request], golden) -> List[Tuple[float, bool, bool]]:
    """Closed loop over SERVE_CONNECTIONS clients: (latency s, ok, hit) each."""
    results: List[Optional[Tuple[float, bool, bool]]] = [None] * len(requests)
    bodies = [json.dumps({"queries": r.queries}).encode() for r in requests]
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                status, doc = _post(port, bodies[i])
            except (OSError, ValueError, http.client.HTTPException):
                status, doc = None, None
            latency = time.perf_counter() - t0
            ok, hit = check_answer(requests[i], status, doc, golden)
            results[i] = (latency, ok, hit)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _set_child_subreaper() -> bool:
    """Adopt orphaned descendants (the server's pool) so they can be reaped."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


class Server:
    """``repro serve`` in its own session; stopping it waits for every
    process of that session, the pool workers included."""

    def __init__(self, store: str, workdir: str, name: str, obs_log: Optional[str] = None,
                 counts_path: Optional[str] = None) -> None:
        args = ["serve", "--store", store, "--host", HOST, "--port", "0",
                "--jobs", str(SERVE_JOBS)]
        if obs_log is not None:
            args += ["--obs-log", obs_log]
        if counts_path is not None:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), counts_path] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        self._err = open(os.path.join(workdir, f"{name}.stderr"), "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._err, env=child_env(),
            start_new_session=True, cwd=ROOT,
        )
        self.port = self._await_port(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        found: Dict[str, int] = {}
        ready = threading.Event()

        def read() -> None:
            for line in self.proc.stdout:
                text = line.decode("utf-8", "replace")
                if "listening on http://" in text and "port" not in found:
                    found["port"] = int(text.rsplit(":", 1)[1].strip().rstrip("/"))
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        if not ready.wait(timeout) or "port" not in found:
            self.stop()
            raise RuntimeError("repro serve did not start listening")
        return found["port"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        _reap_group(self.proc.pid)
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._err.close()


class EchoReference:
    """``echo_server.py`` in its own process: the serve workload's host-speed
    reference (README.md, "Host noise")."""

    BODY = json.dumps({"queries": []}).encode()

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "echo_server.py")],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError("echo server did not start")
        # One kept-alive connection: new connections vary up to 5x from one
        # round trip to the next, more than the host speed does.
        self.conn = http.client.HTTPConnection(HOST, int(line), timeout=60)

    def round_trip_s(self) -> float:
        """Mean seconds of ECHO_ROUND_TRIPS request/response round trips."""
        t0 = time.perf_counter()
        for _ in range(ECHO_ROUND_TRIPS):
            self.conn.request("POST", "/query", body=self.BODY,
                              headers={"Content-Type": "application/json"})
            self.conn.getresponse().read()
        return (time.perf_counter() - t0) / ECHO_ROUND_TRIPS

    def stop(self) -> None:
        if hasattr(self, "conn"):
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _reap_group(pgid: int, timeout: float = 15.0) -> None:
    """Wait for every remaining process of session ``pgid``; kill stragglers."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            if os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG) is not None:
                continue
        except ChildProcessError:
            # None of ours is left; poll any that were adopted elsewhere.
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
        if time.monotonic() > deadline:
            if killed:
                return
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def _start_ready(store: str, workdir: str, name: str, warmup: Tuple[str, str, int],
                 golden, **kwargs) -> Tuple[Server, float]:
    """Start a server and send one fresh cell so its lazy pool starts;
    returns the server and that set-up's seconds."""
    t0 = time.perf_counter()
    server = Server(store, workdir, name, **kwargs)
    request = _miss_request(warmup, 1)
    status, doc = _post(server.port, json.dumps({"queries": request.queries}).encode())
    elapsed = time.perf_counter() - t0
    if not check_answer(request, status, doc, golden)[0]:
        server.stop()
        raise RuntimeError(f"serve warm-up query failed: {doc}")
    return server, elapsed


def _prewarm(store: str, universe) -> None:
    report = run_campaign(_universe_cells(universe), CampaignPolicy(jobs=CAMPAIGN_JOBS),
                          store=store)
    if report.n_failed:
        raise RuntimeError(f"pre-warming the serve store failed: {report.summary()}")


def serve_mixed(seed: int, seconds: float, trace: bool, workdir: str,
                sizes: Sizes = FULL, golden_path: str = cells.GOLDEN_PATH) -> Outcome:
    golden = load_golden(golden_path)
    _set_child_subreaper()
    rng = random.Random(seed)
    universe = _universe(rng, sizes.universe_size)
    misses = _miss_order(rng)
    store = os.path.join(workdir, "store")
    t0 = time.perf_counter()
    _prewarm(store, universe)
    prewarm_s = time.perf_counter() - t0
    if trace:
        return _serve_traced(rng, universe, misses, store, workdir, golden, sizes)

    setups = []
    server = None
    for i in range(sizes.setup_repeats):
        if server is not None:
            server.stop()
        server, elapsed = _start_ready(store, workdir, f"serve-{i}", cells.WARMUP_CELLS[i], golden)
        setups.append(elapsed)
    # (pass wall, samples), all at the reference speed.
    passes: List[Tuple[float, List[Tuple[float, bool, bool]]]] = []
    round_trips: List[float] = []
    max_passes = len(misses) // (sizes.misses_per_pass + sizes.coalesce_batches)

    def one_pass(_: int) -> None:
        requests = build_pass(rng, universe, misses, sizes)
        wall, results = 0.0, []
        for start in range(0, len(requests), CHUNK_REQUESTS):
            t0 = time.perf_counter()
            chunk = drive(server.port, requests[start:start + CHUNK_REQUESTS], golden)
            elapsed = time.perf_counter() - t0
            # Slow spells last about a chunk, so each chunk gets the factor
            # of the round trips right after it (one factor per pass, from
            # the median round trip, left the pass spread as wide as raw).
            round_trips.append(echo.round_trip_s())
            factor = ECHO_REF_S / round_trips[-1]
            wall += elapsed * factor
            results += [(lat * factor, ok, hit) for lat, ok, hit in chunk]
        passes.append((wall, results))

    try:
        echo = EchoReference()
        try:
            durations = run_passes(seconds, sizes.min_passes, one_pass, max_passes)
        finally:
            echo.stop()
    finally:
        server.stop()
    samples = [s for _, results in passes for s in results]
    failed = sum(1 for _, ok, _ in samples if not ok)
    # Host interference only adds time: central figures come from the
    # fastest pass.  Tails need many samples, so p99 of hits and the ~100x
    # rarer misses pool every pass.
    pass_s, fastest = min(passes, key=lambda p: p[0])
    best = [(1e3 * lat, hit) for lat, _, hit in fastest]
    hits = [lat for lat, hit in best if hit]
    all_hits = [1e3 * lat for lat, _, hit in samples if hit]
    miss = [1e3 * lat for lat, _, hit in samples if not hit]
    out = Outcome(attempted=len(samples), failed=failed)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "max_rss_mb": max_rss_mb(),
        "pass_s": pass_s,
        "op_p50_ms": percentile([lat for lat, _ in best], 50),
        "sim_op_p90_ms": percentile(miss, 90),
    }
    out.report = {
        "setup_s": out.metrics["setup_s"],
        "max_rss_mb": out.metrics["max_rss_mb"],
        "error_rate": failed / len(samples),
        "hit_p50_ms": percentile(hits, 50),
        "hit_p99_ms": percentile(all_hits, 99),
        "miss_p50_ms": percentile(miss, 50),
        "miss_p90_ms": out.metrics["sim_op_p90_ms"],
        "qps": len(best) / out.metrics["pass_s"],
    }
    out.notes.append(
        f"{len(durations)} passes of {sizes.requests_per_pass} requests over "
        f"{SERVE_CONNECTIONS} connections; {len(hits)} hits in the fastest pass, "
        f"{len(miss)} miss samples in all; universe {len(universe)} cells, "
        f"pre-warmed in {prewarm_s:.1f} s"
    )
    out.notes.append(
        f"wall-clock passes {', '.join(f'{t:.2f}' for t in durations)} s; echo round trip "
        f"median {1e3 * statistics.median(round_trips):.3f} ms "
        f"(reference {1e3 * ECHO_REF_S:.3f} ms)"
    )
    out.notes.append(setup_note(setups))
    return out


def _serve_pass(store: str, workdir: str, name: str, requests, golden, warmup,
                **kwargs) -> Tuple[float, List, Dict[str, object]]:
    server, _ = _start_ready(store, workdir, name, warmup, golden, **kwargs)
    try:
        t0 = time.perf_counter()
        samples = drive(server.port, requests, golden)
        wall = time.perf_counter() - t0
        snapshot = _get(server.port, "/metrics.json")
    finally:
        server.stop()
    return wall, samples, snapshot


def _serve_traced(rng, universe, misses, store, workdir, golden, sizes: Sizes) -> Outcome:
    """Untraced pass, the same pass with obs spans and store timers, then an
    in-process traced simulation of the pass's miss cells."""
    from repro.obs.events import read_events
    from repro.obs.spans import rollup

    fresh = misses[: sizes.misses_per_pass + sizes.coalesce_batches]
    requests = build_pass(rng, universe, misses, sizes)
    traced_store = os.path.join(workdir, "store-traced")
    shutil.copytree(store, traced_store)
    wall_u, samples_u, _ = _serve_pass(
        store, workdir, "serve-untraced", requests, golden, cells.WARMUP_CELLS[0]
    )
    obs_log = os.path.join(workdir, "obs.jsonl")
    counts_path = os.path.join(workdir, "serve-counts.json")
    wall_t, samples_t, snapshot = _serve_pass(
        traced_store, workdir, "serve-traced", requests, golden, cells.WARMUP_CELLS[0],
        obs_log=obs_log, counts_path=counts_path,
    )
    spans = rollup(read_events(obs_log))
    with open(counts_path, "r", encoding="utf-8") as fh:
        server_calls = json.load(fh)

    check = GoldenCheck(golden)
    miss_cells = [make_cell(b, p, t, "reference") for b, p, t in fresh]
    metrics, failed = traced_cells(miss_cells, check)
    metrics["trace.overhead"] = wall_t / wall_u
    metrics.update(store_metrics(server_calls["counts"], server_calls["call_s"]))

    def span(name: str, field_name: str) -> float:
        return spans.get(name, {}).get(field_name, 0.0)

    serve = snapshot["serve"]
    resolutions = serve["hits"] + serve["misses"] + serve["coalesced"]
    metrics["serve.hit_ratio"] = serve["hits"] / resolutions
    metrics["serve.coalesce_fanin"] = (serve["misses"] + serve["coalesced"]) / serve["misses"]
    metrics["serve.lookup_s"] = span("store.lookup", "total_s")
    metrics["serve.query_self_s"] = span("serve.query", "self_s")
    metrics["serve.dispatch_wait_s"] = span("dispatch.wait", "self_s")
    metrics["serve.publish_s"] = span("store.publish", "total_s")
    metrics["serve.pool_busy"] = span("sim.run", "total_s") / (wall_t * SERVE_JOBS)
    samples = samples_u + samples_t
    failed += sum(1 for _, ok, _ in samples if not ok)
    out = Outcome(attempted=len(samples) + 2 * len(miss_cells), failed=failed, metrics=metrics)
    sims = span("sim.run", "count")
    out.notes.append(
        f"passes: untraced {wall_u:.2f} s, traced {wall_t:.2f} s; {sims:.0f} sim.run spans, "
        f"mean {span('sim.run', 'total_s') / max(sims, 1) * 1e3:.1f} ms"
    )
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

RUNNERS = {
    "grid-event": grid_event,
    "campaign-reference": campaign_reference,
    "serve-mixed": serve_mixed,
}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        sizes: Sizes = FULL, golden_path: str = cells.GOLDEN_PATH) -> Outcome:
    os.makedirs(workdir, exist_ok=True)
    try:
        return RUNNERS[workload](seed, seconds, trace, workdir, sizes, golden_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(outcome: Outcome, trace: bool) -> Dict[str, object]:
    """The result line: exactly correct, attempted, failed and metrics."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
