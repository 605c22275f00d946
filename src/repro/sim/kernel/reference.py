"""The ``reference`` kernel: the original conservative min-timestamp loop.

This is the trusted baseline — the stepping loop is kept exactly as it
shipped in ``repro.sim.cosim.Scheduler`` (which now aliases this class), and
every other kernel is differentially tested against it.  Per iteration it
re-scans all runners for wakeable predicates, rebuilds the runnable set, and
takes a linear ``min`` over it; the cost is O(cores) per step, which is fine
for the dual-core figure reproduction and intentionally left untouched.
"""

from __future__ import annotations

from repro.sim.kernel.base import SimKernel, _State, register_kernel


@register_kernel("reference")
class ReferenceKernel(SimKernel):
    """Min-timestamp scheduler over a set of core generators."""

    def run(self) -> None:
        """Drive all cores to completion."""
        while True:
            self._wake_ready()
            runnable = [r for r in self.runners if r.state is _State.RUNNABLE]
            if not runnable:
                if all(r.state is _State.DONE for r in self.runners):
                    return
                if not self._fire_timeout():
                    self._raise_deadlock()
                continue
            runner = min(runnable, key=lambda r: r.time)
            self._step(runner)
            if self.checkpoint is not None:
                self.checkpoint.on_step(self)

    # ------------------------------------------------------------------

    def _wake_ready(self) -> None:
        for r in self.runners:
            if r.state is not _State.BLOCKED:
                continue
            if r.predicate is not None and r.predicate():
                self._wake(r, "ok")
            elif r.deadline is not None and self._others_past(r, r.deadline):
                self._wake(r, "timeout")

    def _fire_timeout(self) -> bool:
        """With everyone blocked, fire the earliest deadline, if any.

        Ties (equal deadlines) resolve to the lowest core id: ``min`` is
        stable and runners are kept in core-id order, so repeated runs fire
        the same runner first — determinism the tests pin down.
        """
        candidates = [
            r for r in self.runners if r.state is _State.BLOCKED and r.deadline is not None
        ]
        if not candidates:
            return False
        self._wake(min(candidates, key=lambda r: r.deadline), "timeout")
        return True
