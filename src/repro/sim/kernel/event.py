"""The ``event`` kernel: event-driven stepping that skips dead work.

Two host-cost reductions over the reference loop, neither of which
changes which generator is stepped when (the differential tests in
``tests/sim/test_kernel.py`` pin bit-identical fingerprints and trace
streams):

* **Wakeup heap.**  Runnable runners live in a heapq of
  ``(next_wakeup_time, core_id)`` entries — core heartbeats and block
  resume points land here, so picking the next runner is a pop instead of a
  rebuild-the-list-and-``min`` scan.  A runnable runner's time only changes
  when *it* is stepped, so entries are never stale (pop → step → push), and
  the tuple's ``core_id`` tiebreak reproduces the reference ``min``'s
  stable lowest-core-id-first ordering exactly.
* **Conditional wake scans.**  The reference loop polls every runner's
  block predicate before every step.  Predicates are required to be pure
  functions of shared simulation state (see :mod:`repro.sim.kernel.base`),
  so when *no* runner is blocked the scan is provably a no-op and is
  skipped; when runners are blocked the scan runs at exactly the reference
  loop's point in the step sequence (before choosing the next runner, in
  core-id order), so the same wakes fire in the same order with the same
  deadline semantics (block deadlines and the everyone-blocked timeout
  firing are evaluated identically).

The machine's own structures are the same under both kernels — the shared
bus books grants in one indexed calendar
(:class:`~repro.sim.kernel.timeline.IndexedTimeline`) whichever kernel
steps it — so the kernels' host-time gap is the stepping loop alone.

Single-runnable fast path: once every other runner is done (the long
single-threaded baseline runs, or a run's drain phase), the kernel steps
the survivor in a tight loop with no heap traffic or state re-checks at
all — the reference loop's per-step list rebuild is pure overhead there.
"""

from __future__ import annotations

import heapq

from repro.sim.kernel.base import SimKernel, _State, register_kernel


@register_kernel("event")
class EventKernel(SimKernel):
    """Heap-scheduled kernel, step-sequence-identical to the reference."""

    def run(self) -> None:
        """Drive all cores to completion."""
        runners = self.runners
        n = len(runners)
        # Build book-keeping from current runner state (not construction
        # state): checkpoint resume restores runners as DONE/RUNNABLE after
        # the kernel is constructed, and must be respected here.
        heap = [(r.time, r.core_id) for r in runners if r.state is _State.RUNNABLE]
        heapq.heapify(heap)
        n_done = sum(1 for r in runners if r.state is _State.DONE)
        n_blocked = n - n_done - len(heap)
        checkpoint = self.checkpoint
        while True:
            if n_blocked:
                # Same scan as the reference _wake_ready: core-id order,
                # predicate wake first, deadline wake second.
                for r in runners:
                    if r.state is not _State.BLOCKED:
                        continue
                    if r.predicate is not None and r.predicate():
                        self._wake(r, "ok")
                    elif r.deadline is not None and self._others_past(r, r.deadline):
                        self._wake(r, "timeout")
                    else:
                        continue
                    n_blocked -= 1
                    heapq.heappush(heap, (r.time, r.core_id))
            elif len(heap) == 1:
                # Single-runnable fast path: nobody is blocked, so no wake
                # scan can fire until this runner blocks or finishes —
                # identical step sequence, no heap or scan traffic.
                runner = runners[heap[0][1]]
                del heap[:]
                while runner.state is _State.RUNNABLE:
                    self._step(runner)
                    if checkpoint is not None:
                        checkpoint.on_step(self)
                if runner.state is _State.BLOCKED:
                    n_blocked += 1
                else:
                    n_done += 1
                continue
            if not heap:
                if n_done == n:
                    return
                if not self._fire_timeout(heap):
                    self._raise_deadlock()
                n_blocked -= 1
                continue
            runner = runners[heapq.heappop(heap)[1]]
            self._step(runner)
            state = runner.state
            if state is _State.RUNNABLE:
                heapq.heappush(heap, (runner.time, runner.core_id))
            elif state is _State.BLOCKED:
                n_blocked += 1
            else:
                n_done += 1
            if checkpoint is not None:
                checkpoint.on_step(self)

    def _fire_timeout(self, heap) -> bool:
        """With everyone blocked, fire the earliest deadline, if any.

        Same tie policy as the reference kernel: equal deadlines resolve to
        the lowest core id (stable ``min`` over core-id-ordered runners).
        """
        candidates = [
            r for r in self.runners if r.state is _State.BLOCKED and r.deadline is not None
        ]
        if not candidates:
            return False
        runner = min(candidates, key=lambda r: r.deadline)
        self._wake(runner, "timeout")
        heapq.heappush(heap, (runner.time, runner.core_id))
        return True
