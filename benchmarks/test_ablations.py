"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper exhibit: isolates the contribution of individual SYNCOPTI /
model ingredients so downstream users can see what each mechanism ingredient
buys (write-forwarding, the stream cache, queue depth, OzQ capacity).
Each ablation turns one override knob of a design point
(:data:`repro.core.design_points.OVERRIDE_KNOBS`).
"""

from repro.harness.runner import run_benchmark
from repro.sim.stats import geomean

BENCHES = ("wc", "adpcmdec", "fir")
TRIPS = {"wc": 400, "adpcmdec": 300, "fir": 300}


def _sweep(point, knob, values):
    """Geomean cycles over BENCHES at each value of one knob."""
    return {
        value: geomean(
            run_benchmark(b, point, TRIPS[b], overrides={knob: value}).cycles for b in BENCHES
        )
        for value in values
    }


def test_queue_depth_ablation(benchmark):
    """Deeper queues monotonically help (more decoupling slack)."""
    out = benchmark.pedantic(
        _sweep, args=("HEAVYWT", "queue_depth", (8, 16, 32, 64)), iterations=1, rounds=1
    )
    print("\nHEAVYWT geomean cycles by queue depth:", {k: round(v) for k, v in out.items()})
    assert out[8] >= out[32] * 0.99  # shallow queues never faster


def test_stream_cache_size_ablation(benchmark):
    """A tiny SC loses hits; the 1 KB default captures nearly all of them."""
    out = benchmark.pedantic(
        _sweep,
        args=("SYNCOPTI_SC", "stream_cache_bytes", (64, 256, 1024)),
        iterations=1,
        rounds=1,
    )
    print("\nSYNCOPTI_SC geomean cycles by SC size:", {k: round(v) for k, v in out.items()})
    assert out[1024] <= out[64] * 1.02


def test_ozq_depth_ablation(benchmark):
    """Fewer outstanding transactions throttles the memory-backed designs."""
    out = benchmark.pedantic(
        _sweep, args=("SYNCOPTI", "ozq_depth", (4, 16)), iterations=1, rounds=1
    )
    print("\nSYNCOPTI geomean cycles by OzQ depth:", {k: round(v) for k, v in out.items()})
    assert out[4] >= out[16] * 0.99
