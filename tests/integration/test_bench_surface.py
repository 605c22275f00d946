"""The names the benchmark's tracer imports from the simulator still work.

``perfbench/tracer.py`` wraps class attributes of every simulator layer —
the stepping loop it finds through ``repro.sim.kernel.available_kernels``
and ``kernel_class``, both calendars, the memory system, the bus, the
core, stats, the mechanisms and stream lowering — and the benchmark's
workloads still name cells with ``kernel="event"``.  Here the tracer is
installed over one small cell spelled with each kernel name: every layer
must record calls, the loop must count one run per simulation, and
uninstalling must restore every patched attribute.
"""

import importlib.util
import os

import pytest

from repro.harness.campaign import CampaignCell, execute_cell

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "perfbench", "tracer.py"
)


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kernel", ["event", "reference"])
def test_tracer_installs_counts_and_restores(tracer_module, kernel):
    tracer = tracer_module.Tracer().install_simulator()
    patched = list(tracer._patched)
    try:
        cells = [
            CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=32, kernel=kernel),
            CampaignCell(benchmark="wc", kind="single", trip_count=32, kernel=kernel),
        ]
        assert all(execute_cell(cell).ok for cell in cells)
    finally:
        tracer.uninstall()
    assert tracer.counts["kernel.runs"] == len(cells)
    for key in tracer_module.COUNT_KEYS.values():
        assert tracer.counts.get(key, 0) > 0, f"{key}: no calls recorded"
    assert patched
    for owner, name, raw in patched:
        assert owner.__dict__[name] is raw, f"{owner.__name__}.{name} not restored"
