"""repro.sim.kernel — the co-simulation stepping loop.

Public surface:

* :class:`~repro.sim.kernel.base.SimKernel` — the one conservative
  min-timestamp loop plus its machinery (runner book-keeping, yield
  protocol, wall-clock watchdog, post-mortems, checkpoint hook).
* :func:`~repro.sim.kernel.base.canonical_kernel` — the kernel-name check
  at the outside boundaries (campaign cells, ledger specs, serve queries,
  ``--kernel``): ``"reference"`` and ``"event"`` both name the one loop.
* :class:`~repro.sim.kernel.timeline.IndexedTimeline` — the shared bus's
  reservation calendar;
  :class:`~repro.sim.kernel.timeline.LinearTimeline` is the grant-identity
  oracle the tests replay it against.

See DESIGN.md §11.
"""

from repro.sim.kernel.base import (
    ContextProbe,
    CoreRunner,
    DeadlockError,
    SimKernel,
    SimulationAbortedError,
    SimulationError,
    SimulationLimitError,
    WALL_CLOCK_CHECK_INTERVAL,
    WALL_CLOCK_CHECK_MAX_INTERVAL,
    WALL_CLOCK_CHECK_MIN_INTERVAL,
    WALL_CLOCK_CHECK_TARGET,
    WallClockExceededError,
    available_kernels,
    canonical_kernel,
    kernel_class,
    observe_run,
)
from repro.sim.kernel.timeline import (
    BusTimeline,
    IndexedTimeline,
    LinearTimeline,
)

__all__ = [
    "BusTimeline",
    "ContextProbe",
    "CoreRunner",
    "DeadlockError",
    "IndexedTimeline",
    "LinearTimeline",
    "SimKernel",
    "SimulationAbortedError",
    "SimulationError",
    "SimulationLimitError",
    "WALL_CLOCK_CHECK_INTERVAL",
    "WALL_CLOCK_CHECK_MAX_INTERVAL",
    "WALL_CLOCK_CHECK_MIN_INTERVAL",
    "WALL_CLOCK_CHECK_TARGET",
    "WallClockExceededError",
    "available_kernels",
    "canonical_kernel",
    "kernel_class",
    "observe_run",
]
