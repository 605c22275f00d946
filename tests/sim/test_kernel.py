"""Pluggable simulation kernels: the bit-identity contract.

The headline property: every registered kernel produces the same
``RunStats.fingerprint()`` *and* the same trace stream as the reference
kernel — across all four design points, clean and under seeded faults,
with and without kill → restore → continue in the middle.  Kernels are
allowed to differ only in host time.

Also pinned here: the grant-identity of the indexed bus calendar every
kernel uses against the linear oracle (hypothesis replay), the
time-adaptive wall-clock watchdog, and the ``host_seconds`` observability
fields.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_points import get_design_point
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import CampaignCell, execute_cell
from repro.sim.checkpoint import (
    Checkpointer,
    PreemptionRequested,
    resume_run,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.sim.config import MachineConfig
from repro.sim.kernel import (
    WALL_CLOCK_CHECK_MAX_INTERVAL,
    WALL_CLOCK_CHECK_MIN_INTERVAL,
    EventKernel,
    IndexedTimeline,
    LinearTimeline,
    ReferenceKernel,
    SimKernel,
    WallClockExceededError,
    available_kernels,
    create_kernel,
    kernel_class,
)
from repro.sim.machine import Machine
from repro.sim.stats import RunStats, ThreadStats
from repro.trace import TraceConfig
from repro.workloads.suite import build_pipelined

#: The differential matrix's design points, with checkpoint intervals
#: matched to run length (as in tests/sim/test_checkpoint.py).
DIFFERENTIAL_POINTS = {
    "EXISTING": 5000,
    "MEMOPTI": 5000,
    "SYNCOPTI_SC": 600,
    "HEAVYWT": 500,
}

FAULTS = (
    FaultRule(kind=FaultKind.FORWARD_DELAY, probability=0.02, magnitude=40),
    FaultRule(kind=FaultKind.BUS_JITTER, probability=0.05, magnitude=12),
)

TRIPS = 200


def _machine(point_name, faulted=False, traced=True):
    point = get_design_point(point_name)
    cfg = point.build_config()
    if faulted:
        cfg.faults = FaultPlan(seed=77, rules=FAULTS)
    if traced:
        cfg.trace = TraceConfig(capacity=1 << 17)
    return Machine(cfg.validate(), mechanism=point.mechanism)


def _trace_stream(machine):
    """The full trace stream as comparable plain tuples (None if untraced)."""
    if machine.trace is None:
        return None
    return [
        (e.seq, e.kind, e.ts, e.core, e.queue, e.dur, tuple(sorted(e.args.items())))
        for e in machine.trace.events
    ]


def _run(point, kernel, faulted=False, traced=True, checkpoint=None, trips=TRIPS):
    machine = _machine(point, faulted=faulted, traced=traced)
    stats = machine.run(
        build_pipelined("wc", trip_count=trips), kernel=kernel, checkpoint=checkpoint
    )
    return machine, stats


# ----------------------------------------------------------------------
# Registry and config plumbing
# ----------------------------------------------------------------------


class TestRegistry:
    def test_both_kernels_registered(self):
        assert set(available_kernels()) >= {"reference", "event"}

    def test_kernel_class_resolves(self):
        assert kernel_class("reference") is ReferenceKernel
        assert kernel_class("event") is EventKernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            create_kernel("warp-drive", [])

    def test_config_validates_kernel_name(self):
        cfg = MachineConfig(kernel="event")
        cfg.validate()
        with pytest.raises(ValueError, match="kernel"):
            MachineConfig(kernel="warp-drive").validate()

    def test_config_describe_names_the_kernel(self):
        assert "event" in str(MachineConfig(kernel="event").describe())

    def test_machine_run_kernel_overrides_config(self):
        _, ref = _run("HEAVYWT", "reference", traced=False)
        point = get_design_point("HEAVYWT")
        cfg = point.build_config().copy(kernel="event")
        machine = Machine(cfg, mechanism=point.mechanism)
        stats = machine.run(build_pipelined("wc", trip_count=TRIPS))
        assert stats.fingerprint() == ref.fingerprint()


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------


class TestDifferentialMatrix:
    """event ≡ reference: fingerprints and trace streams, everywhere."""

    @pytest.mark.parametrize("point", sorted(DIFFERENTIAL_POINTS))
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_event_matches_reference(self, point, faulted):
        ref_machine, ref = _run(point, "reference", faulted=faulted)
        ev_machine, ev = _run(point, "event", faulted=faulted)
        assert ev.fingerprint() == ref.fingerprint()
        assert ev.cycles == ref.cycles
        assert _trace_stream(ev_machine) == _trace_stream(ref_machine)

    @pytest.mark.parametrize("point", sorted(DIFFERENTIAL_POINTS))
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_event_matches_reference_through_checkpointing(self, point, faulted):
        """Checkpointing on, no kill: snapshots never perturb either kernel,
        and the snapshots the event kernel takes resume bit-identically."""
        every = DIFFERENTIAL_POINTS[point]
        _, ref = _run(point, "reference", faulted=faulted, traced=False)
        blobs = []
        ck = Checkpointer(
            every=every,
            on_snapshot=lambda snap, path: blobs.append(snapshot_to_bytes(snap)),
        )
        _, ev = _run(point, "event", faulted=faulted, traced=False, checkpoint=ck)
        assert ev.fingerprint() == ref.fingerprint()
        assert blobs, f"{point}: no snapshots taken; tune the interval"
        resumed = resume_run(
            snapshot_from_bytes(blobs[len(blobs) // 2]),
            build_pipelined("wc", trip_count=TRIPS),
            kernel="event",
        )
        assert resumed.fingerprint() == ref.fingerprint()

    @pytest.mark.parametrize("resume_kernel", ["reference", "event"])
    def test_cross_kernel_resume(self, resume_kernel):
        """A snapshot taken under one kernel resumes under the other, with
        no conversion step: both kernels step the same machine state."""
        _, ref = _run("EXISTING", "reference", traced=False)
        blobs = []
        ck = Checkpointer(
            every=5000,
            on_snapshot=lambda snap, path: blobs.append(snapshot_to_bytes(snap)),
        )
        snap_kernel = "event" if resume_kernel == "reference" else "reference"
        _run("EXISTING", snap_kernel, traced=False, checkpoint=ck)
        assert blobs
        resumed = resume_run(
            snapshot_from_bytes(blobs[-1]),
            build_pipelined("wc", trip_count=TRIPS),
            kernel=resume_kernel,
        )
        assert resumed.fingerprint() == ref.fingerprint()

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_kill_restore_continue_under_event_kernel(self, faulted):
        """Preempt mid-run under the event kernel, restore, continue: the
        completed run is indistinguishable from never having crashed."""
        _, ref = _run("EXISTING", "reference", faulted=faulted, traced=False)
        ck = Checkpointer(every=5000)
        taken = []

        def preempt_on_second(snap, path):
            taken.append(snap)
            if len(taken) == 2:
                ck.request_preempt()

        ck.on_snapshot = preempt_on_second
        machine = _machine("EXISTING", faulted=faulted, traced=False)
        with pytest.raises(PreemptionRequested) as exc_info:
            machine.run(
                build_pipelined("wc", trip_count=TRIPS),
                kernel="event",
                checkpoint=ck,
            )
        resumed = resume_run(
            exc_info.value.snapshot,
            build_pipelined("wc", trip_count=TRIPS),
            kernel="event",
        )
        assert resumed.fingerprint() == ref.fingerprint()


# ----------------------------------------------------------------------
# Bus calendars: grant-identity round-trip
# ----------------------------------------------------------------------

#: One reservation request: the next request's base time advances by
#: ``gap``, the requester asks ``back`` cycles behind the running maximum
#: (bounded well inside PRUNE_MARGIN, as the conservative co-simulator
#: guarantees), for a strictly positive ``hold`` (transfer_bus_cycles >= 1).
_REQUESTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3000),   # gap to next base time
        st.integers(min_value=0, max_value=15000),  # skew behind the max
        st.integers(min_value=1, max_value=60),     # hold
        st.booleans(),                              # reserve vs probe
    ),
    min_size=1,
    max_size=120,
)


def _replay(timeline, requests):
    grants = []
    base = 0.0
    for gap, back, hold, reserve in requests:
        base += gap
        at = max(0.0, base - back)
        grants.append(timeline.reserve(at, float(hold), reserve))
    return grants


class TestTimelineEquivalence:
    @given(requests=_REQUESTS)
    @settings(max_examples=200, deadline=None)
    def test_indexed_matches_linear(self, requests):
        linear, indexed = LinearTimeline(), IndexedTimeline()
        assert _replay(linear, requests) == _replay(indexed, requests)

    def test_touching_intervals_merge(self):
        tl = IndexedTimeline()
        tl.reserve(0.0, 10.0)
        tl.reserve(10.0, 10.0)
        assert tl.intervals() == [(0.0, 20.0)]


# ----------------------------------------------------------------------
# Wall-clock watchdog: kernel-aware, time-adaptive cadence
# ----------------------------------------------------------------------


class TestWatchdog:
    @pytest.mark.parametrize("kernel", sorted(available_kernels()))
    def test_budget_overrun_raises_with_post_mortem(self, kernel):
        machine = _machine("EXISTING", traced=False)
        with pytest.raises(WallClockExceededError) as exc_info:
            machine.run(
                build_pipelined("wc", trip_count=5000),
                kernel=kernel,
                wall_clock_budget=1e-9,
            )
        assert exc_info.value.post_mortem is not None
        assert exc_info.value.budget == 1e-9

    @pytest.mark.parametrize("kernel", sorted(available_kernels()))
    def test_budget_checks_never_perturb_the_run(self, kernel):
        _, free = _run("SYNCOPTI_SC", kernel, traced=False)
        machine = _machine("SYNCOPTI_SC", traced=False)
        watched = machine.run(
            build_pipelined("wc", trip_count=TRIPS),
            kernel=kernel,
            wall_clock_budget=3600.0,
        )
        assert watched.fingerprint() == free.fingerprint()

    def test_cadence_backs_off_when_checks_are_cheap(self, monkeypatch):
        """Checks landing far closer together than the target re-aim the
        interval upward (doubling, clamped) — steps, not host time, are
        cheap to count, so the kernel converts between the two adaptively."""
        kernel = create_kernel("reference", [], wall_clock_budget=3600.0)
        start = kernel._wall_clock_interval
        kernel._wall_clock_last_check = 0.0
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)  # zero elapsed
        kernel._check_wall_clock()
        assert kernel._wall_clock_interval == min(
            start * 2, WALL_CLOCK_CHECK_MAX_INTERVAL
        )

    def test_cadence_tightens_when_checks_are_sparse(self, monkeypatch):
        kernel = create_kernel("reference", [], wall_clock_budget=3600.0)
        kernel._wall_clock_interval = 1 << 12
        kernel._wall_clock_last_check = 0.0
        clock = iter([100.0])
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        kernel._check_wall_clock()  # 100s since last check >> target
        assert kernel._wall_clock_interval == (1 << 12) // 2

    def test_cadence_respects_clamps(self, monkeypatch):
        kernel = create_kernel("event", [], wall_clock_budget=3600.0)
        kernel._wall_clock_interval = WALL_CLOCK_CHECK_MIN_INTERVAL
        kernel._wall_clock_last_check = 0.0
        clock = iter([100.0])
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        kernel._check_wall_clock()
        assert kernel._wall_clock_interval == WALL_CLOCK_CHECK_MIN_INTERVAL

    def test_no_budget_means_no_checks(self):
        kernel = create_kernel("event", [])
        assert kernel._wall_clock_start is None


# ----------------------------------------------------------------------
# host_seconds / simulated_cycles_per_sec observability
# ----------------------------------------------------------------------


class TestHostSeconds:
    def test_machine_run_stamps_host_seconds(self):
        _, stats = _run("HEAVYWT", "event", traced=False)
        assert stats.host_seconds > 0
        assert stats.simulated_cycles_per_sec > 0

    def test_host_seconds_excluded_from_fingerprint(self):
        threads = [ThreadStats(thread_id=0, cycles=123)]
        a = RunStats(threads=threads, host_seconds=0.5)
        b = RunStats(threads=threads, host_seconds=99.0)
        assert a.fingerprint() == b.fingerprint()

    def test_throughput_zero_without_timing(self):
        stats = RunStats(threads=[ThreadStats(thread_id=0, cycles=100)])
        assert stats.simulated_cycles_per_sec == 0.0


# ----------------------------------------------------------------------
# Campaign integration: kernel is part of the cell spec
# ----------------------------------------------------------------------


class TestCampaignKernel:
    def test_spec_round_trip(self):
        cell = CampaignCell(
            benchmark="wc", design_point="HEAVYWT", trip_count=64, kernel="event"
        )
        clone = CampaignCell.from_spec(cell.spec())
        assert clone.kernel == "event"
        assert clone.key() == cell.key()

    def test_legacy_spec_defaults_to_reference(self):
        import warnings

        cell = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=64)
        spec = cell.spec()
        spec.pop("kernel")
        with warnings.catch_warnings():
            # May fire the once-per-process legacy-spec upgrade warning
            # (tests/harness/test_ledger_schema.py pins that behaviour).
            warnings.simplefilter("ignore", UserWarning)
            assert CampaignCell.from_spec(spec).kernel == "reference"

    def test_kernel_choice_changes_key_not_fingerprint(self):
        ref_cell = CampaignCell(
            benchmark="wc", design_point="SYNCOPTI_SC", trip_count=64
        )
        ev_cell = CampaignCell(
            benchmark="wc", design_point="SYNCOPTI_SC", trip_count=64, kernel="event"
        )
        assert ref_cell.key() != ev_cell.key()
        ref_out = execute_cell(ref_cell)
        ev_out = execute_cell(ev_cell)
        assert ref_out.ok and ev_out.ok
        assert ev_out.fingerprint() == ref_out.fingerprint()

    def test_unknown_kernel_rejected_at_validation(self):
        cell = CampaignCell(
            benchmark="wc", design_point="HEAVYWT", trip_count=64, kernel="warp"
        )
        with pytest.raises(ValueError, match="kernel"):
            cell.validate()


# ----------------------------------------------------------------------
# Kernel base-class hygiene
# ----------------------------------------------------------------------


class TestKernelInterface:
    def test_base_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SimKernel([]).run()

    @pytest.mark.parametrize("kernel", sorted(available_kernels()))
    def test_machine_holds_indexed_calendar(self, kernel):
        """Every kernel steps a machine whose bus books grants in the one
        indexed calendar; the linear walk is only the tests' oracle."""
        machine, _ = _run("EXISTING", kernel, traced=False, trips=64)
        assert type(machine.mem.bus.timeline) is IndexedTimeline
        assert machine.mem.bus.transactions > 0
        assert not hasattr(SimKernel, "install")
