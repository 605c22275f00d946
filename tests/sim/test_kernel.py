"""The one stepping loop against the seed-era reference loop.

:class:`ReferenceKernel` below is the seed-era ``reference`` loop, kept
here unchanged as the oracle: before every step it polls every blocked
runner's predicate, rebuilds the runnable list and takes a linear ``min``.
The headline property: :meth:`SimKernel.run` issues the same sequence of
``generator.send`` calls with the same resume values, so its
``RunStats.fingerprint()`` and trace stream are the oracle's — across all
four design points, clean and under seeded faults, traced, checkpointed,
and through kill → restore → continue.  The matrix keeps the test names it
had while ``"event"`` named a second loop; that name now reaches the one
loop, which is what runs on the ``event`` side.

A hypothesis replay of random block/post/clock programs checks the same
policy on corner cases no workload happens to reach.  Also pinned here:
the kernel names the outside boundaries accept, the
grant-identity of the indexed bus calendar against the linear oracle
(hypothesis replay), the time-adaptive wall-clock watchdog, and the
``host_seconds`` observability fields.
"""

import contextlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.checkpoint as checkpoint_module
import repro.sim.machine as machine_module
from repro.core.design_points import get_design_point
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    campaign_status,
    execute_cell,
    run_campaign,
)
from repro.harness.runner import TimedOutRun
from repro.sim.checkpoint import (
    Checkpointer,
    PreemptionRequested,
    resume_run,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.sim.kernel import (
    WALL_CLOCK_CHECK_MAX_INTERVAL,
    WALL_CLOCK_CHECK_MIN_INTERVAL,
    DeadlockError,
    IndexedTimeline,
    LinearTimeline,
    SimKernel,
    available_kernels,
    canonical_kernel,
    kernel_class,
)
from repro.sim.kernel.base import _State
from repro.sim.machine import Machine
from repro.sim.stats import RunStats, ThreadStats
from repro.store.store import (
    ResultStore,
    StoreEntry,
    _encode_entry,
    cell_digest,
    stats_to_payload,
)
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

#: The kernel names campaign cells, ledgers, serve queries and the CLI
#: accept; both reach the one loop.
KERNEL_NAMES = ["event", "reference"]


class ReferenceKernel(SimKernel):
    """The seed-era min-timestamp loop, unchanged: the differential oracle."""

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


def _recording(loop):
    """``loop`` logging every ``generator.send``: (core, resume value)."""

    class Recording(loop):
        sends = []

        def _step(self, runner):
            self.sends.append((runner.core_id, runner.resume_value))
            super()._step(runner)

    return Recording


@contextlib.contextmanager
def _stepped_by(loop):
    """Machines run and resumed inside the block step with ``loop``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine_module, "SimKernel", loop)
        mp.setattr(checkpoint_module, "SimKernel", loop)
        yield


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


def _run(point, loop=SimKernel, faulted=False, traced=True, checkpoint=None, trips=TRIPS):
    machine = _machine(point, faulted=faulted, traced=traced)
    with _stepped_by(loop):
        stats = machine.run(build_pipelined("wc", trip_count=trips), checkpoint=checkpoint)
    return machine, stats


# ----------------------------------------------------------------------
# Kernel names: what is left of the registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_both_kernels_registered(self):
        """Both names the outside boundaries accept map to the one loop."""
        assert available_kernels() == ("reference",)
        assert canonical_kernel("event") == canonical_kernel("reference") == "reference"

    def test_kernel_class_resolves(self):
        assert kernel_class("reference") is SimKernel
        assert kernel_class("event") is SimKernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            canonical_kernel("warp-drive")
        with pytest.raises(ValueError, match="unknown"):
            kernel_class("warp-drive")


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------


class TestDifferentialMatrix:
    """The one loop ≡ the seed-era reference loop: sends, fingerprints and
    trace streams, everywhere."""

    @pytest.mark.parametrize("point", sorted(DIFFERENTIAL_POINTS))
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_event_matches_reference(self, point, faulted):
        oracle, loop = _recording(ReferenceKernel), _recording(SimKernel)
        ref_machine, ref = _run(point, oracle, faulted=faulted)
        machine, stats = _run(point, loop, faulted=faulted)
        assert loop.sends == oracle.sends
        assert stats.fingerprint() == ref.fingerprint()
        assert stats.cycles == ref.cycles
        assert _trace_stream(machine) == _trace_stream(ref_machine)

    @pytest.mark.parametrize("point", sorted(DIFFERENTIAL_POINTS))
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_event_matches_reference_through_checkpointing(self, point, faulted):
        """Checkpointing on, no kill: snapshots never perturb the loop, and
        the snapshots it takes resume bit-identically."""
        every = DIFFERENTIAL_POINTS[point]
        _, ref = _run(point, ReferenceKernel, faulted=faulted, traced=False)
        blobs = []
        ck = Checkpointer(
            every=every,
            on_snapshot=lambda snap, path: blobs.append(snapshot_to_bytes(snap)),
        )
        _, stats = _run(point, faulted=faulted, traced=False, checkpoint=ck)
        assert stats.fingerprint() == ref.fingerprint()
        assert blobs, f"{point}: no snapshots taken; tune the interval"
        resumed = resume_run(
            snapshot_from_bytes(blobs[len(blobs) // 2]),
            build_pipelined("wc", trip_count=TRIPS),
        )
        assert resumed.fingerprint() == ref.fingerprint()

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_kill_restore_continue_under_event_kernel(self, faulted):
        """Preempt mid-run, restore, continue: the completed run is the
        oracle's uninterrupted one."""
        _, ref = _run("EXISTING", ReferenceKernel, faulted=faulted, traced=False)
        ck = Checkpointer(every=5000)
        taken = []

        def preempt_on_second(snap, path):
            taken.append(snap)
            if len(taken) == 2:
                ck.request_preempt()

        ck.on_snapshot = preempt_on_second
        machine = _machine("EXISTING", faulted=faulted, traced=False)
        with pytest.raises(PreemptionRequested) as exc_info:
            machine.run(build_pipelined("wc", trip_count=TRIPS), checkpoint=ck)
        resumed = resume_run(exc_info.value.snapshot, build_pipelined("wc", trip_count=TRIPS))
        assert resumed.fingerprint() == ref.fingerprint()


#: One core's random program over two shared mailboxes: advance the clock,
#: post to a mailbox, or block until a mailbox holds ``count`` posts, with
#: an optional deadline ``offset`` cycles ahead.
_PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.just("time"), st.integers(1, 20)),
        st.tuples(st.just("post"), st.integers(0, 1)),
        st.tuples(
            st.just("wait"),
            st.integers(0, 1),
            st.integers(1, 4),
            st.one_of(st.none(), st.integers(0, 30)),
        ),
    ),
    max_size=12,
)


def _policy_outcome(loop, programs):
    """Each wake's (core, status, clock) and the mailboxes, under ``loop``."""
    boxes, log = ([], []), []

    def core(core_id, program):
        t = 0.0
        for action in program:
            if action[0] == "time":
                t += action[1]
                yield ("time", t)
            elif action[0] == "post":
                boxes[action[1]].append((core_id, t))
            else:
                _, box, count, offset = action
                status = yield (
                    "block",
                    lambda b=boxes[box], n=count: len(b) >= n,
                    None if offset is None else t + offset,
                )
                log.append((core_id, status, t))

    try:
        loop([core(i, program) for i, program in enumerate(programs)]).run()
    except DeadlockError:
        log.append("deadlock")
    return log, boxes


class TestPolicy:
    @given(programs=st.lists(_PROGRAM, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_loop_matches_oracle_on_random_programs(self, programs):
        """Wake order, predicate-before-deadline precedence, deadline ties
        and deadlocks, on programs no workload happens to produce."""
        assert _policy_outcome(SimKernel, programs) == _policy_outcome(
            ReferenceKernel, programs
        )


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
# Wall-clock watchdog: time-adaptive cadence
# ----------------------------------------------------------------------


def _cell(point, trips, kernel):
    return CampaignCell(benchmark="wc", design_point=point, trip_count=trips, kernel=kernel)


class TestWatchdog:
    """Cells spelled with either accepted kernel name run under the watchdog."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_budget_overrun_raises_with_post_mortem(self, kernel):
        """The watchdog raises inside the run; the cell records the
        post-mortem built before the run state was gone."""
        outcome = execute_cell(_cell("EXISTING", 5000, kernel), wall_clock_budget=1e-9)
        assert isinstance(outcome, TimedOutRun)
        assert outcome.post_mortem is not None
        assert outcome.budget == 1e-9

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_budget_checks_never_perturb_the_run(self, kernel):
        _, free = _run("SYNCOPTI_SC", traced=False)
        watched = execute_cell(_cell("SYNCOPTI_SC", TRIPS, kernel), wall_clock_budget=3600.0)
        assert watched.ok
        assert watched.fingerprint() == free.fingerprint()

    def test_cadence_backs_off_when_checks_are_cheap(self, monkeypatch):
        """Checks landing far closer together than the target re-aim the
        interval upward (doubling, clamped) — steps, not host time, are
        cheap to count, so the kernel converts between the two adaptively."""
        kernel = SimKernel([], wall_clock_budget=3600.0)
        start = kernel._wall_clock_interval
        kernel._wall_clock_last_check = 0.0
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)  # zero elapsed
        kernel._check_wall_clock()
        assert kernel._wall_clock_interval == min(
            start * 2, WALL_CLOCK_CHECK_MAX_INTERVAL
        )

    def test_cadence_tightens_when_checks_are_sparse(self, monkeypatch):
        kernel = SimKernel([], wall_clock_budget=3600.0)
        kernel._wall_clock_interval = 1 << 12
        kernel._wall_clock_last_check = 0.0
        clock = iter([100.0])
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        kernel._check_wall_clock()  # 100s since last check >> target
        assert kernel._wall_clock_interval == (1 << 12) // 2

    def test_cadence_respects_clamps(self, monkeypatch):
        kernel = SimKernel([], wall_clock_budget=3600.0)
        kernel._wall_clock_interval = WALL_CLOCK_CHECK_MIN_INTERVAL
        kernel._wall_clock_last_check = 0.0
        clock = iter([100.0])
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        kernel._check_wall_clock()
        assert kernel._wall_clock_interval == WALL_CLOCK_CHECK_MIN_INTERVAL

    def test_no_budget_means_no_checks(self):
        kernel = SimKernel([])
        assert kernel._wall_clock_start is None


# ----------------------------------------------------------------------
# host_seconds / simulated_cycles_per_sec observability
# ----------------------------------------------------------------------


class TestHostSeconds:
    def test_machine_run_stamps_host_seconds(self):
        _, stats = _run("HEAVYWT", traced=False)
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
# Campaign integration: the kernel name never splits a spec
# ----------------------------------------------------------------------

#: A campaign journal as it was written while ``kernel="event"`` named a
#: second loop: both cells done, their results stored under digests of
#: specs that carried ``"kernel": "event"``.
EVENT_ERA_CELLS = (
    ("wc/HEAVYWT#d82e01dd",
     "6bc5ffdc2552bec79039181880c6a73c60da5f5f57e190b794a7e5103cfe3260",
     {"benchmark": "wc", "design_point": "HEAVYWT", "kind": "benchmark"}),
    ("wc/SINGLE#98f9d84f",
     "d0591d9330a8490a896fef891659c0fad34db16e217efd836e4dfa0469f60213",
     {"benchmark": "wc", "design_point": "HEAVYWT", "kind": "single"}),
)


class TestCampaignKernel:
    def test_spec_round_trip(self):
        cell = CampaignCell(
            benchmark="wc", design_point="HEAVYWT", trip_count=64, kernel="event"
        )
        assert cell.spec()["kernel"] == "reference"
        clone = CampaignCell.from_spec(cell.spec())
        assert clone.kernel == "reference"
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

    def test_kernel_alias_shares_key_and_digest(self):
        ref_cell = CampaignCell(benchmark="wc", design_point="SYNCOPTI_SC", trip_count=64)
        ev_cell = CampaignCell(
            benchmark="wc", design_point="SYNCOPTI_SC", trip_count=64, kernel="event"
        )
        assert ev_cell == ref_cell
        assert ev_cell.key() == ref_cell.key()
        assert cell_digest(ev_cell) == cell_digest(ref_cell)

    def test_unknown_kernel_rejected_at_validation(self):
        with pytest.raises(ValueError, match="kernel"):
            CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=64, kernel="warp")
        spec = CampaignCell(benchmark="wc", trip_count=64).spec()
        with pytest.raises(ValueError, match="kernel"):
            CampaignCell.from_spec({**spec, "kernel": "warp"})

    def test_event_era_ledger_resumes_with_every_cell_done(self, tmp_path):
        """An event-era journal resumes: its cells re-run under the default
        digests and finish done; the event-era entries stay on disk."""
        ledger_path = str(tmp_path / "event.jsonl")
        store = ResultStore(ledger_path + ".store")
        records = [{"event": "campaign-start", "schema": 2, "time": 0.0, "resume": False,
                    "n_cells": len(EVENT_ERA_CELLS), "store": store.root}]
        for key, digest, fields in EVENT_ERA_CELLS:
            spec = {**fields, "trip_count": 48, "overrides": {}, "fault_plan": None,
                    "stages": None, "kernel": "event"}
            cell = CampaignCell.from_spec(spec)
            outcome = execute_cell(cell)
            store._write_atomic(store.entry_path(digest), _encode_entry(StoreEntry(
                digest=digest, spec=spec, fingerprint=outcome.fingerprint(),
                cycles=outcome.cycles, stats=stats_to_payload(outcome.stats))))
            records.append({"event": "cell-start", "cell": key, "attempt": 1,
                            "schema": 2, "spec": spec})
            records.append({"event": "cell-end", "cell": key, "attempt": 1,
                            "terminal": True, "status": "done", "store_digest": digest})
        records.append({"event": "campaign-end", "time": 0.0, "complete": True})
        with open(ledger_path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)

        cells = [
            CampaignCell.from_spec(rec["spec"])
            for rec in CampaignLedger.read(ledger_path)
            if rec["event"] == "cell-start"
        ]
        report = run_campaign(cells, ledger_path=ledger_path, resume=True, store=store)
        assert report.n_done == len(cells) and not report.failures()
        for cell in cells:
            assert store.contains(cell_digest(cell))
        for _, digest, _ in EVENT_ERA_CELLS:
            assert store.contains(digest)
        assert campaign_status(ledger_path)["complete"]


# ----------------------------------------------------------------------
# Kernel hygiene
# ----------------------------------------------------------------------


class TestKernelInterface:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_machine_holds_indexed_calendar(self, kernel):
        """The bus books grants in the one indexed calendar; the linear walk
        is only the tests' oracle."""
        outcome = execute_cell(_cell("EXISTING", 64, kernel))
        assert type(outcome.machine.mem.bus.timeline) is IndexedTimeline
        assert outcome.machine.mem.bus.transactions > 0
        assert not hasattr(SimKernel, "install")
