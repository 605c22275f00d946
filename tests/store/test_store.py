"""The content-addressed result store: digests, durability, dedupe.

Acceptance properties:

* digests are stable across processes and sensitive to every spec field
  *and* the spec schema version;
* put/get round-trips the full RunStats — the rebuilt stats reproduce the
  recorded fingerprint bit for bit (float-typed counters included);
* a second publication of the same digest is a dedupe, a conflicting
  fingerprint is a loud determinism error;
* two processes racing to publish one digest converge on one valid entry;
* corrupt entries (truncation, bit flips, bad magic) are quarantined on
  read — never returned, never deleted — and verify/gc/stats account for
  every file.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.chaos import ChaosFS, ChaosPlan
from repro.chaos import FaultRule as ChaosRule
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.harness.campaign import CampaignCell, execute_cell
from repro.harness.runner import RunResult
from repro.store import store as store_module
from repro.store.store import (
    SPEC_SCHEMA_VERSION,
    ResultStore,
    StoreEntry,
    StoreError,
    _encode_entry,
    cell_digest,
    result_from_entry,
    stats_from_payload,
    stats_to_payload,
)

CELL = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)


@pytest.fixture(scope="module")
def run_result():
    out = execute_cell(CELL)
    assert isinstance(out, RunResult)
    return out


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def test_digest_is_stable_and_full_width():
    d1 = cell_digest(CELL)
    d2 = cell_digest(
        CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    )
    assert d1 == d2
    assert len(d1) == 64  # full sha256 hex, not the 8-digit key() suffix
    assert all(c in "0123456789abcdef" for c in d1)


@pytest.mark.parametrize(
    "other",
    [
        CampaignCell(benchmark="fir", design_point="HEAVYWT", trip_count=48),
        CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48),
        CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=96),
        CampaignCell(
            benchmark="wc",
            design_point="HEAVYWT",
            trip_count=48,
            fault_plan=FaultPlan(
                seed=1, rules=(FaultRule(kind=FaultKind.BUS_JITTER, magnitude=4),)
            ),
        ),
        CampaignCell(
            benchmark="wc",
            design_point="HEAVYWT",
            trip_count=48,
            overrides={"bus_latency": 40},
        ),
        CampaignCell(benchmark="wc", kind="single", trip_count=48),
    ],
)
def test_digest_sensitive_to_every_spec_field(other):
    assert cell_digest(other) != cell_digest(CELL)


def test_default_cell_digest_is_pinned():
    """Schema v3 moved every address (v2 single-threaded and pipeline cells
    were filed under fields their runs ignored); a two-stage cell's key,
    which hashes its spec alone, stayed where it was."""
    assert CELL.key() == "wc/HEAVYWT#3f1772f6"
    assert cell_digest(CELL) == (
        "f87d64110c95b3e70c7422f1100073904fca9d43ebc1ce99858a40d0d0d38801"
    )


def test_single_threaded_digest_names_no_design_point():
    """The baseline runs no design point, so its spelling cannot split the
    one run into two entries."""
    cells = [
        CampaignCell(benchmark="wc", design_point=point, kind="single", trip_count=48)
        for point in ("HEAVYWT", "EXISTING", "SYNCOPTI")
    ]
    assert len({cell_digest(c) for c in cells}) == 1
    assert len({c.key() for c in cells}) == 1
    assert cells[1].spec()["design_point"] is None
    assert CampaignCell.from_spec(cells[1].spec()) == cells[0]


@pytest.mark.parametrize("kind", ["benchmark", "single"])
def test_stages_on_a_non_pipeline_cell_is_rejected(kind):
    """A two-stage or single-threaded cell ignores ``stages``; hashing it
    would file one run under two digests."""
    cell = CampaignCell(benchmark="wc", kind=kind, trip_count=64, stages=3)
    with pytest.raises(ValueError, match="stages"):
        cell_digest(cell)


def test_event_kernel_name_addresses_the_default_entry():
    alias = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48, kernel="event")
    assert cell_digest(alias) == cell_digest(CELL)


def test_digest_hashes_the_schema_version(monkeypatch):
    before = cell_digest(CELL)
    monkeypatch.setattr("repro.store.store.SPEC_SCHEMA_VERSION", SPEC_SCHEMA_VERSION + 1)
    assert cell_digest(CELL) != before


# ----------------------------------------------------------------------
# Stats payload round-trip
# ----------------------------------------------------------------------


def test_stats_payload_roundtrip_preserves_fingerprint(run_result):
    payload = json.loads(json.dumps(stats_to_payload(run_result.stats)))
    rebuilt = stats_from_payload(payload)
    assert rebuilt.fingerprint() == run_result.fingerprint()
    assert rebuilt.cycles == run_result.stats.cycles


def test_stats_payload_keeps_float_typed_counters(run_result):
    """The simulator leaves some counters as floats; ``1242.0`` and
    ``1242`` are different canonical JSON texts, so coercion would change
    the fingerprint of a bit-identical result."""
    stats = run_result.stats
    stats_f = stats_from_payload(json.loads(json.dumps(stats_to_payload(stats))))
    for orig, rebuilt in zip(stats.threads, stats_f.threads):
        for key, value in orig.canonical().items():
            assert type(rebuilt.canonical()[key]) is type(value)


# ----------------------------------------------------------------------
# put / get / dedupe
# ----------------------------------------------------------------------


def test_put_get_roundtrip(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, created = store.put(CELL, run_result, provenance={"campaign": "t"})
    assert created
    assert entry.digest == cell_digest(CELL)
    assert entry.fingerprint == run_result.fingerprint()

    got = store.get(entry.digest)
    assert got is not None
    assert got.canonical() == entry.canonical()
    assert store.hits == 1

    res = result_from_entry(got)
    assert res.ok
    assert res.cycles == run_result.cycles
    assert res.fingerprint() == run_result.fingerprint()
    assert res.extras["store_hit"] is True
    assert res.extras["store_digest"] == entry.digest
    assert res.machine is None and res.trace is None


def test_put_twice_is_dedupe_not_rewrite(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    _, created1 = store.put(CELL, run_result)
    entry2, created2 = store.put(CELL, run_result)
    assert created1 and not created2
    assert store.dedupes == 1
    assert store.writes == 1
    assert entry2.fingerprint == run_result.fingerprint()


def test_conflicting_fingerprint_is_a_determinism_error(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL, run_result)
    impostor = RunResult(
        benchmark=run_result.benchmark,
        design_point=run_result.design_point,
        cycles=run_result.cycles + 1,
        stats=stats_from_payload(
            {
                "threads": [
                    {**t, "cycles": t["cycles"] + 1}
                    for t in stats_to_payload(run_result.stats)["threads"]
                ],
                "host_seconds": 0.0,
            }
        ),
        machine=None,
        trace=None,
    )
    with pytest.raises(StoreError, match="determinism"):
        store.put(CELL, impostor)


def test_get_miss_counts(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.get("0" * 64) is None
    assert store.misses == 1
    assert not store.contains("0" * 64)
    assert store.misses == 1  # contains() is not a counted miss


# ----------------------------------------------------------------------
# Concurrent writers (satellite: the publish race)
# ----------------------------------------------------------------------


def _racing_put(root, barrier, out_queue):
    """Child entry point: simulate the cell and publish into the store."""
    out = execute_cell(CELL)
    store = ResultStore(root)
    barrier.wait(timeout=60)  # line both writers up on the same instant
    entry, created = store.put(CELL, out)
    out_queue.put((entry.fingerprint, created))


def test_two_processes_racing_one_digest_converge(tmp_path, run_result):
    """Satellite: concurrent publication of the same digest must leave
    exactly one valid entry — atomic rename wins, loser dedupes or
    harmlessly reinstalls identical bytes."""
    root = str(tmp_path / "store")
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    out_queue = ctx.Queue()
    procs = [
        ctx.Process(target=_racing_put, args=(root, barrier, out_queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    results = [out_queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0

    fingerprints = {fp for fp, _ in results}
    assert fingerprints == {run_result.fingerprint()}

    store = ResultStore(root)
    entry = store.get(cell_digest(CELL))
    assert entry is not None
    assert entry.fingerprint == run_result.fingerprint()
    report = store.verify()
    assert report["entries"] == 1
    assert report["valid"] == 1
    assert report["corrupt"] == 0


# ----------------------------------------------------------------------
# Corruption quarantine (satellite: truncation round-trip)
# ----------------------------------------------------------------------


def test_truncated_entry_is_quarantined_and_missed(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    path = store.entry_path(entry.digest)
    data = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])  # torn write

    assert store.get(entry.digest) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)  # moved aside, not deleted
    quarantined = [
        n for n in os.listdir(os.path.dirname(path)) if "quarantined" in n
    ]
    assert len(quarantined) == 1

    # Re-publication heals the digest; the evidence file stays.
    entry2, created = store.put(CELL, run_result)
    assert created
    assert store.get(entry2.digest) is not None


def test_bitflip_fails_crc_and_quarantines(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    path = store.entry_path(entry.digest)
    data = bytearray(Path(path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert store.get(entry.digest) is None
    assert store.corrupt == 1


def test_verify_catches_semantic_corruption(tmp_path, run_result):
    """A CRC-valid entry whose stats no longer reproduce the recorded
    fingerprint is still corruption — verify() quarantines it."""
    from repro.store.store import StoreEntry, _encode_entry

    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    doc = entry.canonical()
    doc["fingerprint"] = "0" * 16  # valid CRC, wrong semantics
    bad = StoreEntry.from_canonical(doc)
    store._write_atomic(store.entry_path(entry.digest), _encode_entry(bad))

    report = store.verify()
    assert report["entries"] == 1
    assert report["corrupt"] == 1
    assert store.get(entry.digest) is None  # quarantined by verify


def test_gc_sweeps_tmp_droppings_and_aged_quarantine(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    shard = os.path.dirname(store.entry_path(entry.digest))
    dropping = os.path.join(shard, "x.entry.tmp.99999")
    with open(dropping, "wb") as fh:
        fh.write(b"half-written")
    quarantined = os.path.join(shard, "y.entry.quarantined")
    with open(quarantined, "wb") as fh:
        fh.write(b"evidence")

    report = store.gc()
    assert dropping in report["removed_tmp"]
    assert os.path.exists(quarantined)  # evidence kept by default

    report = store.gc(quarantine_max_age=0.0)
    assert quarantined in report["removed_quarantined"]
    assert store.get(entry.digest) is not None  # real entry untouched


def test_stats_summary(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL, run_result)
    store.get(cell_digest(CELL))
    store.get("0" * 64)
    s = store.stats()
    assert s["entries"] == 1
    assert s["bytes"] > 0
    assert s["hits"] == 1
    assert s["misses"] == 1
    assert s["writes"] == 1


# ----------------------------------------------------------------------
# Decoded-entry reuse: every lookup reads the file; unchanged bytes skip
# the CRC check and the parse
# ----------------------------------------------------------------------


def _count_decodes(monkeypatch):
    """Record each ``_decode_entry`` call the store makes from now on."""
    calls = []
    real = store_module._decode_entry

    def counting(data, source="<bytes>"):
        calls.append(source)
        return real(data, source)

    monkeypatch.setattr(store_module, "_decode_entry", counting)
    return calls


def test_unchanged_entry_is_read_every_time_and_decoded_once(
    tmp_path, run_result, monkeypatch
):
    fs = ChaosFS(ChaosPlan())  # no faults: it only records each read
    store = ResultStore(str(tmp_path / "store"), fs=fs)
    entry, _ = store.put(CELL, run_result)
    path = store.entry_path(entry.digest)
    reads_before = sum(1 for op in fs.ops if op.op == "read" and op.path == path)
    decodes = _count_decodes(monkeypatch)

    got = [store.get(entry.digest) for _ in range(10)]
    assert len(decodes) == 1
    reads = sum(1 for op in fs.ops if op.op == "read" and op.path == path)
    assert reads - reads_before == 10
    assert all(g.canonical() == entry.canonical() for g in got)
    assert store.hits == 10

    os.unlink(path)
    assert store.get(entry.digest) is None  # a removed entry is a miss
    assert store.misses == 1


def test_entry_rewritten_in_place_is_checked_afresh(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    assert store.get(entry.digest) is not None
    assert store.get(entry.digest) is not None  # answered from the kept entry
    path = store.entry_path(entry.digest)
    middle = os.path.getsize(path) // 2
    with open(path, "r+b") as fh:  # same file, same size: one body byte flipped
        fh.seek(middle)
        flipped = fh.read(1)[0] ^ 0xFF
        fh.seek(middle)
        fh.write(bytes([flipped]))

    assert store.get(entry.digest) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)
    shard = os.path.dirname(path)
    assert [n for n in os.listdir(shard) if "quarantined" in n] == [
        os.path.basename(path) + ".quarantined"
    ]


def test_read_error_surfaces_for_a_kept_entry(tmp_path, run_result):
    fs = ChaosFS(ChaosPlan())
    store = ResultStore(str(tmp_path / "store"), fs=fs)
    entry, _ = store.put(CELL, run_result)
    assert store.get(entry.digest) is not None  # decoded and kept

    fs.plan.rules.append(ChaosRule(op="read", path_substr=entry.digest))
    with pytest.raises(OSError):
        store.get(entry.digest)
    assert fs.injected == {"rule:read": 1}
    assert store.get(entry.digest).canonical() == entry.canonical()  # disk healed
    assert (store.hits, store.misses, store.corrupt) == (2, 0, 0)


def test_kept_entries_are_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "DECODED_ENTRIES", 2)
    store = ResultStore(str(tmp_path / "store"))
    digests = [f"{i:064x}" for i in (1, 2, 3)]
    for digest in digests:
        stub = StoreEntry(digest=digest, spec={}, fingerprint="0" * 16, cycles=1, stats={})
        store._write_atomic(store.entry_path(digest), _encode_entry(stub))
    assert all(store.get(d) is not None for d in digests)

    decodes = _count_decodes(monkeypatch)
    store.get(digests[1])
    store.get(digests[2])
    assert decodes == []  # the two most recently read are kept
    store.get(digests[0])
    assert decodes == [store.entry_path(digests[0])]  # the oldest was evicted
