"""The unified metrics registry: counters, gauges, fixed-bucket histograms.

Acceptance properties:

* asking the registry for a counter twice returns the same counter, and
  counters only go up;
* histograms fold observations into fixed buckets, including the edges —
  zero-duration lands in the first bucket, beyond-the-largest lands only
  in ``+Inf`` — and snapshots stay internally consistent under
  concurrent updates;
* ``render_prometheus`` emits valid 0.0.4 text exposition with one
  HELP/TYPE header per family and cumulative ``le`` buckets.
"""

import threading

import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    get_registry,
    reset_registry,
)


def test_counter_get_or_create_accumulates_on_one_object():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_total")
    c.inc()
    reg.counter("repro_test_total").inc(2)
    assert reg.counter("repro_test_total") is c  # get-or-create, same object
    assert c.value == 3
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("repro_depth")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value == 3


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("repro_thing")
    with pytest.raises(TypeError):
        reg.gauge("repro_thing")


def test_labels_key_distinct_series():
    reg = MetricsRegistry()
    a = reg.counter("repro_runs_total", kernel="reference")
    b = reg.counter("repro_runs_total", kernel="event")
    a.inc()
    assert a.value == 1 and b.value == 0
    text = reg.render_prometheus()
    assert 'repro_runs_total{kernel="reference"} 1' in text
    assert 'repro_runs_total{kernel="event"} 0' in text
    # one TYPE header for the family despite two series
    assert text.count("# TYPE repro_runs_total") == 1


def test_histogram_zero_lands_in_first_bucket():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds")
    h.observe(0.0)
    snap = h.snapshot()
    assert snap["count"] == 1
    assert snap["buckets"][0]["le"] == LATENCY_BUCKETS_S[0]
    assert snap["buckets"][0]["count"] == 1


def test_histogram_beyond_largest_bucket_is_inf_only():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds")
    h.observe(LATENCY_BUCKETS_S[-1] * 1000)
    snap = h.snapshot()
    assert all(b["count"] == 0 for b in snap["buckets"][:-1])
    assert snap["buckets"][-1]["le"] == "+Inf"
    assert snap["buckets"][-1]["count"] == 1


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds")
    for v in (0.0005, 0.002, 0.002, 5.0, 100.0):
        h.observe(v)
    snap = h.snapshot()
    counts = [b["count"] for b in snap["buckets"]]
    assert counts == sorted(counts)
    assert counts[-1] == snap["count"] == 5
    assert snap["max"] == 100.0


def test_histogram_snapshot_consistent_under_concurrency():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds")
    stop = threading.Event()
    bad = []

    def hammer():
        for i in range(2000):
            h.observe((i % 50) * 0.001)

    def scrape():
        while not stop.is_set():
            snap = h.snapshot()
            counts = [b["count"] for b in snap["buckets"]]
            if counts != sorted(counts) or counts[-1] != snap["count"]:
                bad.append(snap)
                return

    workers = [threading.Thread(target=hammer) for _ in range(4)]
    scraper = threading.Thread(target=scrape)
    scraper.start()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    stop.set()
    scraper.join()
    assert not bad
    assert h.snapshot()["count"] == 4 * 2000


def test_render_prometheus_histogram_exposition():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", "how long", kernel="reference")
    h.observe(0.002)
    text = reg.render_prometheus()
    lines = text.splitlines()
    assert "# HELP repro_lat_seconds how long" in lines
    assert "# TYPE repro_lat_seconds histogram" in lines
    buckets = [ln for ln in lines if ln.startswith("repro_lat_seconds_bucket")]
    assert len(buckets) == len(LATENCY_BUCKETS_S) + 1
    assert 'le="+Inf"' in buckets[-1]
    assert any(ln.startswith("repro_lat_seconds_sum{") for ln in lines)
    assert any(ln.startswith("repro_lat_seconds_count{") for ln in lines)
    # every sample line parses as <name>{labels} <float>
    for ln in lines:
        if ln.startswith("#"):
            continue
        name_part, _, value = ln.rpartition(" ")
        assert name_part and float(value) >= 0


def test_snapshot_json_roundtrip():
    import json

    reg = MetricsRegistry()
    reg.counter("repro_a_total").inc(2)
    reg.gauge("repro_b").set(1.5)
    reg.histogram("repro_c_seconds").observe(0.5)
    doc = json.loads(json.dumps(reg.snapshot()))
    kinds = {m["name"]: m["kind"] for m in doc["metrics"]}
    assert kinds == {
        "repro_a_total": "counter",
        "repro_b": "gauge",
        "repro_c_seconds": "histogram",
    }


def test_process_registry_reset():
    first = get_registry()
    first.counter("repro_x_total").inc()
    fresh = reset_registry()
    try:
        assert fresh is get_registry() and fresh is not first
        assert fresh.counter("repro_x_total").value == 0
    finally:
        reset_registry()
