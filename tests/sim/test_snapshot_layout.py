"""The pickled machine layout is pinned to the snapshot format version.

A snapshot pickles the whole machine, so any attribute a class gains or
loses — a build-time binding on the memory system, a new counter on a
mechanism — changes what an old snapshot unpickles into: the resume then
dies mid-run on the missing attribute instead of being rejected by its
header.  The format version is how such snapshots are refused, so every
layout change must bump it.  Here each registered mechanism's machine (plus
one traced and one fault-injected machine) runs a short program and is
walked by a pickler; every ``repro`` class it meets contributes its
qualified name and its sorted instance attribute or slot names, and the
digest of that collection must equal the one recorded for the current
:data:`~repro.sim.checkpoint.CHECKPOINT_VERSION`.
"""

import enum
import hashlib
import io
import json
import pickle

from repro.core.design_points import DESIGN_POINTS
from repro.core.mechanism import available_mechanisms
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.sim.checkpoint import CHECKPOINT_VERSION
from repro.sim.machine import Machine
from repro.trace.buffer import TraceConfig
from repro.workloads.suite import build_pipelined

#: Snapshot format version -> digest of the pickled machine layout.
LAYOUT_DIGESTS = {4: "8a1cb8d678e7e8e9", 5: "0b764b4bc74b927c", 6: "c92d9076fb682921"}


class _LayoutRecorder(pickle.Pickler):
    """A pickler that records the attribute layout of every object it saves."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.layouts = {}

    def persistent_id(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro.") and not isinstance(obj, enum.Enum):
            names = set(getattr(obj, "__dict__", ()))
            for klass in cls.__mro__:
                slots = klass.__dict__.get("__slots__", ())
                names.update((slots,) if isinstance(slots, str) else slots)
            names -= {"__dict__", "__weakref__"}
            key = f"{cls.__module__}.{cls.__qualname__}"
            self.layouts.setdefault(key, set()).add(tuple(sorted(names)))
        return None


def _run_machine(point: str, **overrides) -> Machine:
    dp = DESIGN_POINTS[point]
    machine = Machine(dp.build_config().copy(**overrides), mechanism=dp.mechanism)
    machine.run(build_pipelined("wc", 32))
    return machine


def _machines():
    for mechanism in available_mechanisms():
        point = next(p for p in DESIGN_POINTS.values() if p.mechanism == mechanism)
        yield _run_machine(point.name)
    yield _run_machine("EXISTING", trace=TraceConfig())
    plan = FaultPlan(
        seed=3,
        rules=(FaultRule(kind=FaultKind.FORWARD_DROP, magnitude=1.0, probability=0.5),),
    ).validate()
    yield _run_machine("SYNCOPTI", faults=plan)


def machine_layout():
    """``{class: [sorted attribute names, ...]}`` over every walked machine."""
    layouts = {}
    for machine in _machines():
        recorder = _LayoutRecorder(io.BytesIO())
        recorder.dump(machine)
        for key, shapes in recorder.layouts.items():
            layouts.setdefault(key, set()).update(shapes)
    return {key: sorted(shapes) for key, shapes in sorted(layouts.items())}


def layout_digest(layout) -> str:
    payload = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def test_machine_layout_matches_snapshot_version():
    layout = machine_layout()
    # The walk reaches every layer a snapshot carries.
    for cls in (
        "repro.sim.machine.Machine",
        "repro.sim.core.CoreModel",
        "repro.mem.hierarchy.MemorySystem",
        "repro.mem.cache.CacheLine",
        "repro.core.queue_model.QueueChannel",
        "repro.core.stream_cache.StreamCacheMechanism",
        "repro.trace.buffer.TraceBuffer",
        "repro.faults.plan.FaultPlan",
    ):
        assert cls in layout, f"{cls} not reached by the walk"
    digest = layout_digest(layout)
    listing = "\n".join(f"  {key}: {shapes}" for key, shapes in layout.items())
    assert LAYOUT_DIGESTS.get(CHECKPOINT_VERSION) == digest, (
        f"the pickled machine layout (digest {digest}) is not the one recorded "
        f"for snapshot format v{CHECKPOINT_VERSION}: an older snapshot would "
        "unpickle into a machine missing attributes. Bump CHECKPOINT_VERSION "
        f"in repro/sim/checkpoint.py and record {{{CHECKPOINT_VERSION + 1}: "
        f"{digest!r}}} in LAYOUT_DIGESTS (if the version was already bumped "
        f"for this change, record {digest!r} under it).\nLayout:\n{listing}"
    )
