"""Lowered programs, built once per process and shared by the cells that run them.

The same lowered program runs unchanged on every design point
(:mod:`repro.dswp.codegen`), and every sweep that compares points or
variants runs one benchmark's cells back to back.  So
:func:`lowered_program` partitions and lowers a program once per process,
materializes each thread's instruction stream into a tuple, and hands every
later cell of that program the same :class:`~repro.sim.program.Program`,
whose builders replay the tuples — whatever the cell's design point,
overrides or fault plan.  Every run path reaches it through the one
executor, :func:`~repro.harness.campaign.run_cell`: serial runs, pool and
queue workers, serve misses, and
:func:`~repro.harness.runner.run_benchmark` /
:func:`~repro.harness.runner.run_single_threaded`.

* **Key**: ``(single-threaded, benchmark, trip count, stages)``.  Both
  pipelined kinds lower through
  :func:`~repro.workloads.suite.build_pipelined`, and a ``"benchmark"``
  cell is the two-stage program, so it shares one entry with a pipeline
  cell of ``stages=2``; a pipeline cell reads each hop's source stage off
  its queue's producer in ``Program.queue_endpoints``.
* **Exact**: nothing assigns to an emitted
  :class:`~repro.sim.isa.DynInst` — the core, the mechanisms and the memory
  system only read instructions — so a replayed stream is the stream the
  generators would emit again, instruction for instruction.
* **Bounded**: the cache holds whole programs up to :data:`CACHE_BUDGET`
  instructions in total and evicts the least recently used.  A program
  larger than that is not cached: its cells run from the lowered program's
  generators, as every cell did before the cache, and stop materializing
  one instruction past the budget.
* **Seam-preserving**: streams are materialized through
  ``ThreadProgram.builder``, never ``ThreadProgram.instructions``, so a run
  still calls ``instructions()`` exactly once per thread.

Nothing here is settable: no option, no environment variable.  Tests clear
the cache with :func:`clear` and lower :data:`CACHE_BUDGET` with
``monkeypatch``.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Tuple

from repro.sim.program import Program, ThreadProgram
from repro.workloads.suite import build_pipelined, build_single_threaded

__all__ = ["CACHE_BUDGET", "LoweredProgram", "clear", "lowered_program"]

#: Most instructions the cache holds, summed over its programs.  About 50
#: bytes each once materialized, so ~1.6 MB; any one benchmark's pipelined
#: and single-threaded programs at the experiment trip counts fit together.
CACHE_BUDGET = 32_768

#: ``(single-threaded, benchmark, trip count, stages)``.
Key = Tuple[bool, str, Optional[int], int]


@dataclass(frozen=True)
class LoweredProgram:
    """A lowered program and the instructions the cache holds for it."""

    program: Program
    #: Instructions the cache holds for this program (0: not cached).
    size: int = 0


_entries: "OrderedDict[Key, LoweredProgram]" = OrderedDict()
_held = 0
_lock = threading.Lock()


def lowered_program(
    kind: str, benchmark: str, trip_count: Optional[int] = None, stages: Optional[int] = None
) -> LoweredProgram:
    """The lowered program of one cell kind, from the cache when it holds it.

    ``kind`` is a :data:`~repro.harness.campaign.CELL_KINDS` name;
    ``stages`` is the pipeline depth of ``"pipeline"`` programs.  Lowering
    errors (an unpartitionable loop, an unknown benchmark) propagate and
    cache nothing.
    """
    global _held
    key = (kind == "single", benchmark, trip_count, stages or 2)
    with _lock:
        entry = _entries.get(key)
        if entry is not None:
            _entries.move_to_end(key)
            return entry
    entry = _materialized(_lower(kind, benchmark, trip_count, stages), CACHE_BUDGET)
    if entry.size == 0:
        return entry
    with _lock:
        if key in _entries:  # another thread lowered it meanwhile
            return _entries[key]
        _entries[key] = entry
        _held += entry.size
        while _held > CACHE_BUDGET:
            _held -= _entries.popitem(last=False)[1].size
    return entry


def clear() -> None:
    """Drop every cached program."""
    global _held
    with _lock:
        _entries.clear()
        _held = 0


def _lower(
    kind: str, benchmark: str, trip_count: Optional[int], stages: Optional[int]
) -> Program:
    """The program straight from the partitioner and codegen."""
    if kind == "single":
        return build_single_threaded(benchmark, trip_count)
    return build_pipelined(benchmark, trip_count, stages or 2)


def _materialized(program: Program, budget: int) -> LoweredProgram:
    """``program`` replaying tuples of its threads' streams, or ``program``
    itself (size 0) when they hold more than ``budget`` instructions."""
    streams = []
    size = 0
    for thread in program.threads:
        stream = tuple(islice(thread.builder(), budget - size + 1))
        size += len(stream)
        if size > budget:
            return LoweredProgram(program)
        streams.append(stream)
    threads = [
        ThreadProgram(thread.name, functools.partial(iter, stream))
        for thread, stream in zip(program.threads, streams)
    ]
    replayed = Program(program.name, threads, program.queue_endpoints)
    return LoweredProgram(replayed, size)
