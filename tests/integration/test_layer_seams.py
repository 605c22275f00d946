"""Every simulated access still crosses the layer seams it is measured at.

The benchmark's per-layer split (``perfbench/tracer.py``) wraps class
attributes of each simulator layer — ``CoreModel.run``, the memory system's
six access methods, ``SharedBus.transfer``, ``IndexedTimeline.reserve``,
``ThreadStats.charge``/``charge_breakdown``, each mechanism's
``produce``/``consume`` and ``ThreadProgram.instructions`` — before a
machine is built.  Hot paths may bind those attributes when a machine is
built, but never at import and never around them: here counting wrappers
are patched on the same attributes, one cell of each Section 4 design point
and SYNCOPTI_SC_Q64 runs, and the calls each seam saw must equal the
machine's own counters.  A load, store or bus
transfer that bypassed its seam would leave a counter ahead of its wrapper.
"""

import functools
from collections import Counter

import pytest

from repro.core.mechanism import _REGISTRY as MECHANISMS
from repro.core.mechanism import CommMechanism
from repro.harness.campaign import CampaignCell, execute_cell
from repro.mem.bus import SharedBus
from repro.mem.hierarchy import MemorySystem
from repro.sim.core import CoreModel
from repro.sim.kernel import IndexedTimeline
from repro.sim.program import ThreadProgram
from repro.sim.stats import ThreadStats

MEM_ACCESS_METHODS = (
    "load", "store", "stream_load", "forward_line", "observe_update", "control_ack",
)


@pytest.fixture
def seams(monkeypatch):
    """Counting wrappers on every traced seam; yields the call counter."""
    calls = Counter()

    def wrap(owner, name, key):
        raw = owner.__dict__[name]

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            calls[key] += 1
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    wrap(CoreModel, "run", "core.run")
    wrap(ThreadProgram, "instructions", "codegen.instructions")
    for name in ("charge", "charge_breakdown"):
        wrap(ThreadStats, name, f"stats.{name}")
    for name in MEM_ACCESS_METHODS:
        wrap(MemorySystem, name, f"mem.{name}")
    wrap(SharedBus, "transfer", "bus.transfer")
    wrap(IndexedTimeline, "reserve", "calendar.reserve")
    for cls in MECHANISMS.values():
        for klass in cls.__mro__:
            if klass is CommMechanism or not issubclass(klass, CommMechanism):
                continue
            for name in ("produce", "consume"):
                if name in klass.__dict__ and not hasattr(klass.__dict__[name], "__wrapped__"):
                    wrap(klass, name, f"mech.{name}")
    return calls


@pytest.mark.parametrize(
    "point", ["EXISTING", "MEMOPTI", "SYNCOPTI", "SYNCOPTI_SC_Q64", "HEAVYWT"]
)
def test_every_access_crosses_its_seam(seams, point):
    outcome = execute_cell(CampaignCell(benchmark="wc", design_point=point, trip_count=64))
    assert outcome.ok
    machine = outcome.machine
    mem, bus = machine.mem, machine.mem.bus
    threads = outcome.stats.threads

    assert seams["core.run"] == seams["codegen.instructions"] == len(threads)
    assert seams["mem.load"] + seams["mem.stream_load"] == mem.loads
    assert seams["mem.store"] == mem.stores
    assert seams["mem.forward_line"] == mem.forwards
    assert seams["bus.transfer"] == bus.transactions
    assert seams["calendar.reserve"] == bus.transactions  # one query per transfer
    assert seams["mech.produce"] == sum(t.produces for t in threads) > 0
    assert seams["mech.consume"] == sum(t.consumes for t in threads) > 0
    assert seams["stats.charge_breakdown"] > 0
    assert mem.loads > 0
    # wc itself stores nothing: every store is a memory-backed queue's.
    assert (mem.stores > 0) is (point != "HEAVYWT")
    if point.startswith("SYNCOPTI"):
        # Bulk ACKs and line forwards; consumes read through stream loads.
        assert seams["mem.control_ack"] > 0 and mem.forwards > 0
        assert seams["mem.stream_load"] > 0
        assert seams["mem.observe_update"] == 0
    elif point == "HEAVYWT":
        # Queue traffic never touches the memory system.
        assert seams["mem.forward_line"] == seams["mem.control_ack"] == 0
        assert seams["mem.observe_update"] == seams["mem.stream_load"] == 0
    else:
        assert seams["mem.observe_update"] > 0
        assert seams["mem.control_ack"] == seams["mem.stream_load"] == 0
    if point == "MEMOPTI":
        assert mem.forwards > 0
    if point == "EXISTING":
        assert mem.forwards == 0
