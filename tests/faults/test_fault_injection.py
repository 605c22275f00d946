"""End-to-end fault injection through the machine's hook points.

These tests exercise the tolerance paths the paper's mechanisms were built
around: SYNCOPTI's partial-line timeout absorbing delayed or dropped
forwards, MEMOPTI falling back to demand coherence misses, and the
scheduler's forensics turning an injected wedge into a diagnosable
deadlock rather than a bare stack trace.
"""

import math

import pytest

from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.sim.config import baseline_config
from repro.sim.kernel import DeadlockError
from tests.conftest import run_mechanism, simple_stream_program

N_ITEMS = 64


def _config_with(*rules, seed=11):
    cfg = baseline_config()
    cfg.faults = FaultPlan(seed=seed, rules=tuple(rules))
    return cfg.validate()


class TestBusJitter:
    def test_jitter_slows_the_run(self):
        base, _ = run_mechanism("existing", simple_stream_program(N_ITEMS))
        cfg = _config_with(
            FaultRule(kind=FaultKind.BUS_JITTER, magnitude=50.0, probability=0.5)
        )
        jittered, machine = run_mechanism(
            "existing", simple_stream_program(N_ITEMS), config=cfg
        )
        assert jittered.cycles > base.cycles
        assert any(i.kind == "bus-jitter" for i in machine.faults.injections)


class TestForwardFaults:
    def test_syncopti_absorbs_forward_delay(self):
        base, _ = run_mechanism("syncopti", simple_stream_program(N_ITEMS))
        cfg = _config_with(
            FaultRule(kind=FaultKind.FORWARD_DELAY, magnitude=400.0, queue_id=0)
        )
        delayed, machine = run_mechanism(
            "syncopti", simple_stream_program(N_ITEMS), config=cfg
        )
        # Delayed forwards trip the partial-line timeout; the run still
        # completes with the same item count, just slower.
        assert delayed.consumer.consumes == base.consumer.consumes == N_ITEMS
        assert delayed.cycles > base.cycles
        assert machine.faults.injections_for_queue(0)

    def test_syncopti_recovers_from_dropped_forwards(self):
        cfg = _config_with(FaultRule(kind=FaultKind.FORWARD_DROP, queue_id=0))
        stats, machine = run_mechanism(
            "syncopti", simple_stream_program(N_ITEMS), config=cfg
        )
        assert stats.consumer.consumes == N_ITEMS
        assert machine.mem.dropped_forwards > 0

    def test_memopti_recovers_from_dropped_forwards(self):
        cfg = _config_with(FaultRule(kind=FaultKind.FORWARD_DROP))
        stats, machine = run_mechanism(
            "memopti", simple_stream_program(N_ITEMS), config=cfg
        )
        assert stats.consumer.consumes == N_ITEMS
        assert machine.mem.dropped_forwards > 0
        # No forward ever completed, so no line was recorded as forwarded.
        assert stats.producer.lines_forwarded == 0


class TestAckDelay:
    def test_ack_delay_completes_and_logs(self):
        cfg = _config_with(
            FaultRule(kind=FaultKind.ACK_DELAY, magnitude=60.0, probability=0.5)
        )
        stats, machine = run_mechanism(
            "syncopti", simple_stream_program(N_ITEMS), config=cfg
        )
        assert stats.consumer.consumes == N_ITEMS
        assert any(i.kind == "ack-delay" for i in machine.faults.injections)


class TestWedgedChannel:
    def _wedge_config(self):
        return _config_with(
            FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0)
        )

    def test_wedge_deadlocks_with_forensics(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_mechanism(
                "existing", simple_stream_program(N_ITEMS), config=self._wedge_config()
            )
        pm = excinfo.value.post_mortem
        assert pm is not None and pm.reason == "deadlock"
        assert pm.blocked_cores() == [0, 1]
        ch = pm.channels[0]
        assert ch.wedged and ch.n_freed == 0
        assert ch.n_produced > 0 and ch.n_consumed > 0
        assert any("WEDGED" in s for s in ch.suspicions())
        assert pm.injections  # the stall shows up in the fault log
        # The rendered message carries the same diagnosis.
        assert "WEDGED" in str(excinfo.value)

    def test_wedge_deadlocks_syncopti_too(self):
        with pytest.raises(DeadlockError):
            run_mechanism(
                "syncopti", simple_stream_program(N_ITEMS), config=self._wedge_config()
            )


class TestDeterminism:
    def _plan_rules(self):
        return (
            FaultRule(kind=FaultKind.BUS_JITTER, magnitude=30.0, probability=0.6),
            FaultRule(kind=FaultKind.FORWARD_DELAY, magnitude=200.0, probability=0.5),
            FaultRule(kind=FaultKind.ACK_DELAY, magnitude=20.0, probability=0.5),
        )

    def test_same_seed_identical_runstats(self):
        a, ma = run_mechanism(
            "syncopti",
            simple_stream_program(N_ITEMS),
            config=_config_with(*self._plan_rules(), seed=42),
        )
        b, mb = run_mechanism(
            "syncopti",
            simple_stream_program(N_ITEMS),
            config=_config_with(*self._plan_rules(), seed=42),
        )
        assert a == b
        assert len(ma.faults.injections) == len(mb.faults.injections)

    def test_plan_reuse_across_machines_is_deterministic(self):
        # The same plan object attached to one config, run twice: Machine
        # resets it, so both runs see the identical injection schedule.
        cfg = _config_with(*self._plan_rules(), seed=42)
        a, _ = run_mechanism("syncopti", simple_stream_program(N_ITEMS), config=cfg)
        b, _ = run_mechanism("syncopti", simple_stream_program(N_ITEMS), config=cfg)
        assert a == b

    def test_different_seed_differs(self):
        a, _ = run_mechanism(
            "syncopti",
            simple_stream_program(N_ITEMS),
            config=_config_with(*self._plan_rules(), seed=1),
        )
        b, _ = run_mechanism(
            "syncopti",
            simple_stream_program(N_ITEMS),
            config=_config_with(*self._plan_rules(), seed=2),
        )
        assert a != b
