"""Every field a cell hashes reaches the machine it runs on.

:func:`~repro.harness.campaign.cell_config` builds every kind's config in
one order: the design point's config (HEAVYWT's for single-threaded cells),
the overrides, one core per stage for pipeline cells, the fault plan, then
``validate``.  The property test draws (kind, knob, value, fault plan)
cells and checks each against a reference machine the test builds itself
with :func:`~repro.core.design_points.apply_overrides` and the plan: the
cell either fails as a config error, as the reference does, or runs with
the reference's fingerprint.  Before the one builder existed,
single-threaded cells dropped their overrides and fault plans and pipeline
cells their overrides, while the store still filed the unmodified run
under the modified cell's digest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_points import OVERRIDE_KNOBS, apply_overrides, get_design_point, with_n_cores
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import CampaignCell, cell_config, execute_cell
from repro.sim.config import StreamCacheConfig
from repro.sim.machine import Machine
from repro.workloads.suite import build_pipelined, build_single_threaded

#: A bus-jitter plan that moves every run it touches.
JITTER = FaultPlan(
    seed=3, rules=(FaultRule(FaultKind.BUS_JITTER, magnitude=40.0, probability=1.0),)
)

#: Values per knob, valid and invalid alike.
KNOB_VALUES = {
    "transit_delay": st.sampled_from([-1, 0, 5, 30]),
    "queue_depth": st.sampled_from([7, 8, 16, 64]),
    "bus_latency": st.sampled_from([0, 1, 4, 8]),
    "bus_width": st.sampled_from([0, 8, 32, 64]),
    "n_cores": st.sampled_from([0, 1, 2, 4]),
    "ozq_depth": st.sampled_from([0, 4, 8, 32]),
    # 100 B is not a whole number of 8-byte items.
    "stream_cache_bytes": st.sampled_from([0, 64, 100, 256]),
}
assert set(KNOB_VALUES) == set(OVERRIDE_KNOBS)

STAGES = 3


@st.composite
def cells(draw):
    kind = draw(st.sampled_from(["benchmark", "single", "pipeline"]))
    knob = draw(st.sampled_from(sorted(OVERRIDE_KNOBS)))
    return CampaignCell(
        benchmark="wc" if kind == "pipeline" else draw(st.sampled_from(["wc", "mcf"])),
        design_point=draw(st.sampled_from(["EXISTING", "SYNCOPTI", "SYNCOPTI_SC", "HEAVYWT"])),
        kind=kind,
        trip_count=draw(st.integers(min_value=32, max_value=64)),
        overrides={knob: draw(KNOB_VALUES[knob])},
        fault_plan=draw(st.sampled_from([None, JITTER])),
        stages=STAGES if kind == "pipeline" else None,
    )


def _reference_fingerprint(cell: CampaignCell) -> str:
    """The cell's run, built without the campaign planner."""
    point = get_design_point("HEAVYWT" if cell.kind == "single" else cell.design_point)
    cfg = apply_overrides(point.build_config(), cell.overrides)
    if cell.kind == "pipeline":
        cfg = with_n_cores(cfg, cell.stages)
        program = build_pipelined(cell.benchmark, cell.trip_count, cell.stages)
    elif cell.kind == "single":
        program = build_single_threaded(cell.benchmark, cell.trip_count)
    else:
        program = build_pipelined(cell.benchmark, cell.trip_count)
    cfg.faults = cell.fault_plan
    machine = Machine(cfg.validate(), mechanism=point.mechanism)
    return machine.run(program).fingerprint()


@settings(max_examples=40, deadline=None)
@given(cell=cells())
def test_a_cell_runs_every_field_it_hashes(cell):
    if cell.kind == "pipeline" and "n_cores" in cell.overrides:
        with pytest.raises(ValueError, match="n_cores"):
            execute_cell(cell)
        return
    try:
        expected = _reference_fingerprint(cell)
    except ValueError:
        with pytest.raises(ValueError):
            execute_cell(cell)
        return
    outcome = execute_cell(cell)
    assert outcome.ok, outcome
    assert outcome.fingerprint() == expected, cell.key()


@pytest.mark.parametrize("kind", ["single", "pipeline"])
def test_overrides_and_fault_plans_move_every_kind(kind):
    """The two reproductions that were filed wrongly before the fix."""
    base = dict(benchmark="wc", design_point="EXISTING", kind=kind, trip_count=200,
                stages=STAGES if kind == "pipeline" else None)
    plain = execute_cell(CampaignCell(**base)).fingerprint()
    for extra in ({"overrides": {"bus_latency": 8}}, {"fault_plan": JITTER}):
        assert execute_cell(CampaignCell(**base, **extra)).fingerprint() != plain, extra


def test_pipeline_cell_rejects_an_n_cores_override():
    cell = CampaignCell(benchmark="wc", design_point="HEAVYWT", kind="pipeline", stages=3,
                        trip_count=48, overrides={"n_cores": 4})
    with pytest.raises(ValueError, match="n_cores"):
        cell.validate()


def test_pipeline_cell_rejects_a_loop_nest(monkeypatch):
    """bzip2's nest has no single-level loop to split into stages; a grid
    holding such a cell is rejected before any of its cells runs."""
    from repro.harness import campaign

    nest = CampaignCell(benchmark="bzip2", design_point="HEAVYWT", kind="pipeline", stages=3,
                        trip_count=48)
    with pytest.raises(ValueError, match="loop nest"):
        nest.validate()
    ran = []
    monkeypatch.setattr(campaign, "run_cell", lambda cell, **kwargs: ran.append(cell))
    with pytest.raises(ValueError, match="loop nest"):
        campaign.run_cells([CampaignCell(benchmark="wc", trip_count=48), nest])
    assert ran == []


def test_a_stream_cache_of_part_items_is_a_config_error():
    """A size that is not a whole number of items would run as the next
    smaller multiple, under a digest of its own."""
    with pytest.raises(ValueError, match="whole number"):
        StreamCacheConfig(size_bytes=100).validate()
    cell = CampaignCell(benchmark="wc", design_point="SYNCOPTI_SC", trip_count=48,
                        overrides={"stream_cache_bytes": 100})
    with pytest.raises(ValueError, match="whole number"):
        cell_config(cell)


def test_a_queue_deeper_than_its_backing_region_is_a_config_error():
    """Each queue has 64 KiB of backing store: 4,096 16-byte slots at the
    default QLU.  At 8,192 wc's queue 0 would share lines with queue 1."""
    deep = dict(benchmark="wc", design_point="EXISTING", trip_count=48)
    cfg, _ = cell_config(CampaignCell(**deep, overrides={"queue_depth": 4096}))
    assert cfg.queues.depth == 4096
    with pytest.raises(ValueError, match="backing region"):
        cell_config(CampaignCell(**deep, overrides={"queue_depth": 8192}))
