"""repro.sim.kernel — pluggable co-simulation stepping engines.

Public surface:

* :class:`~repro.sim.kernel.base.SimKernel` — the engine interface plus all
  shared machinery (runner book-keeping, yield protocol, wall-clock
  watchdog, post-mortems, checkpoint hook).
* :func:`~repro.sim.kernel.base.create_kernel` /
  :func:`~repro.sim.kernel.base.available_kernels` /
  :func:`~repro.sim.kernel.base.kernel_class` — the registry.
* :class:`~repro.sim.kernel.reference.ReferenceKernel` (``"reference"``) —
  the original min-timestamp loop, the differential baseline.
* :class:`~repro.sim.kernel.event.EventKernel` (``"event"``) — the
  event-driven fast path (wakeup heap, conditional wake scans).
* :class:`~repro.sim.kernel.timeline.IndexedTimeline` — the shared bus's
  reservation calendar under every kernel;
  :class:`~repro.sim.kernel.timeline.LinearTimeline` is the grant-identity
  oracle the tests replay it against.

Pick one with ``MachineConfig(kernel=...)``, ``Machine.run(kernel=...)``,
or ``python -m repro ... --kernel event``; see DESIGN.md §11 for the
differential guarantee kernels must uphold.
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
    create_kernel,
    kernel_class,
    observe_run,
    register_kernel,
)
from repro.sim.kernel.event import EventKernel
from repro.sim.kernel.reference import ReferenceKernel
from repro.sim.kernel.timeline import (
    BusTimeline,
    IndexedTimeline,
    LinearTimeline,
)

#: Registered kernel names, for CLI choices and config validation.
KERNEL_NAMES = tuple(available_kernels())

__all__ = [
    "BusTimeline",
    "ContextProbe",
    "CoreRunner",
    "DeadlockError",
    "EventKernel",
    "IndexedTimeline",
    "KERNEL_NAMES",
    "LinearTimeline",
    "ReferenceKernel",
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
    "create_kernel",
    "kernel_class",
    "observe_run",
    "register_kernel",
]
