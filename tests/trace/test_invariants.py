"""Satellite: trace-derived queue-occupancy invariants across all four
design points, with a seeded fault plan stressing slot recycling.

The reconstruction (``queue_occupancy``) is independent of the channels'
own bookkeeping, so these tests cross-check the mechanisms' gating logic:
occupancy derived purely from ``queue.publish`` / ``queue.free`` visibility
events must never go negative (a slot freed before it was published) and
never exceed the architectural depth (a producer publishing into a full
queue) — even while ``QUEUE_SLOT_STALL`` faults delay recycling.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import CampaignCell, run_cell
from repro.trace.buffer import TraceConfig
from repro.trace.timeline import (
    check_occupancy,
    occupancy_plateaus,
    queue_occupancy,
)

DESIGN_POINTS = ("EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT")


def _traced_run(point: str, faults: FaultPlan = None, benchmark: str = "wc"):
    cell = CampaignCell(benchmark, point, trip_count=200, fault_plan=faults)
    return run_cell(cell, trace=TraceConfig(capacity=1 << 20))


def _stall_plan() -> FaultPlan:
    return FaultPlan(
        seed=7,
        rules=(
            FaultRule(
                kind=FaultKind.QUEUE_SLOT_STALL,
                magnitude=300.0,
                probability=0.10,
            ),
        ),
    ).validate()


@pytest.mark.parametrize("point", DESIGN_POINTS)
class TestOccupancyInvariants:
    def test_clean_run_within_bounds(self, point):
        result = _traced_run(point)
        queues = {ev.queue for ev in result.trace.select(kind="queue.publish")}
        assert queues, "no queue.publish events traced"
        depth = result.machine.config.queues.depth
        for qid in queues:
            samples = queue_occupancy(result.trace, qid)
            assert samples, f"queue {qid} produced no occupancy samples"
            violations = check_occupancy(samples, depth, queue_id=qid)
            assert not violations, violations[0].describe()
            # Every produced item must eventually be consumed: the channel
            # drains back to empty at the end of the run.
            assert samples[-1][1] == 0

    def test_faulted_run_within_bounds(self, point):
        result = _traced_run(point, faults=_stall_plan())
        assert result.machine.faults.injections, "fault plan never fired"
        depth = result.machine.config.queues.depth
        queues = {ev.queue for ev in result.trace.select(kind="queue.publish")}
        for qid in queues:
            samples = queue_occupancy(result.trace, qid)
            violations = check_occupancy(samples, depth, queue_id=qid)
            assert not violations, violations[0].describe()
            assert samples[-1][1] == 0

    def test_slot_stalls_create_occupancy_plateaus(self, point):
        # Delayed recycling must be visible in the derived timeline: the
        # faulted run holds high occupancy for longer than the clean run.
        clean = _traced_run(point)
        faulted = _traced_run(point, faults=_stall_plan())
        qid = next(
            iter(ev.queue for ev in clean.trace.select(kind="queue.publish"))
        )

        def plateau_time(result) -> float:
            samples = queue_occupancy(result.trace, qid)
            spans = occupancy_plateaus(samples, min_duration=250.0)
            return sum(end - start for start, end, _occ in spans)

        assert plateau_time(faulted) >= plateau_time(clean)
