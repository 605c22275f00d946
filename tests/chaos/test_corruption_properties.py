"""Property tests: arbitrary corruption is contained, never half-applied.

For each durable artifact — a store entry, the campaign ledger's tail,
a checkpoint snapshot — hypothesis drives prefix truncation and byte
flips at arbitrary offsets and asserts the reader's trichotomy: the
artifact is read back intact, or it is quarantined/skipped and the
protocol recovers, but a corrupted version is NEVER served as valid.
"""

import functools
import os
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.harness.campaign import CampaignCell, CampaignLedger, execute_cell
from repro.harness.runner import RunResult
from repro.sim.checkpoint import (
    read_snapshot,
    recover_snapshot,
    write_snapshot,
)
from repro.store.store import ResultStore, cell_digest


@functools.lru_cache(maxsize=1)
def _golden():
    """One simulated cell, executed once for the whole module."""
    cell = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    outcome = execute_cell(cell)
    assert isinstance(outcome, RunResult)
    return cell, outcome, outcome.fingerprint()


def _corrupt(data: bytes, kind: str, offset: int) -> bytes:
    """Apply one corruption at ``offset`` (scaled into range)."""
    if not data:
        return data
    offset = offset % len(data)
    if kind == "truncate":
        return data[:offset]
    flipped = bytes([data[offset] ^ 0xFF])
    return data[:offset] + flipped + data[offset + 1 :]


class TestStoreEntryCorruption:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["truncate", "flip"]),
        offset=st.integers(min_value=0, max_value=2**20),
    )
    def test_entry_is_valid_or_quarantined_never_garbage(
        self, tmp_path_factory, kind, offset
    ):
        cell, outcome, fingerprint = _golden()
        root = str(tmp_path_factory.mktemp("store"))
        store = ResultStore(root)
        store.put(cell, outcome, provenance={"campaign": "prop"})
        digest = cell_digest(cell)
        path = store.entry_path(digest)
        pristine = Path(path).read_bytes()
        mutated = _corrupt(pristine, kind, offset)
        with open(path, "wb") as fh:
            fh.write(mutated)

        fresh = ResultStore(root)
        entry = fresh.get(digest)
        if entry is not None:
            # Served == bit-identically the golden result (the flip either
            # missed nothing or was caught; identity is the only pass).
            assert entry.fingerprint == fingerprint
            assert entry.digest == digest
        else:
            # Quarantined: the evidence exists and a re-publish converges.
            quarantined = [
                n
                for n in os.listdir(os.path.dirname(path))
                if ".quarantined" in n
            ]
            assert quarantined, "corrupt entry vanished without evidence"
            fresh.put(cell, outcome, provenance={"campaign": "prop"})
            recovered = fresh.get(digest)
            assert recovered is not None
            assert recovered.fingerprint == fingerprint


class TestLedgerTailCorruption:
    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2**20))
    def test_truncated_tail_replays_an_intact_prefix(self, tmp_path_factory, cut):
        path = str(tmp_path_factory.mktemp("ledger") / "ledger.jsonl")
        records = [
            {"cell": f"c{i}", "attempt": 1, "status": "done", "i": i}
            for i in range(6)
        ]
        ledger = CampaignLedger(path)
        for record in records:
            ledger.append(record)
        ledger.close()

        data = Path(path).read_bytes()
        cut = cut % (len(data) + 1)
        with open(path, "wb") as fh:
            fh.write(data[:cut])

        replayed = CampaignLedger.read(path)
        # Exactly the records whose full line survived — an intact,
        # in-order prefix; the torn tail is dropped, never half-parsed.
        assert replayed == records[: len(replayed)]
        # Every record whose full line survived is kept — no over- or
        # under-reading around the tear.
        assert len(replayed) == data[:cut].count(b"\n")


class TestSnapshotCorruption:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["truncate", "flip"]),
        offset=st.integers(min_value=0, max_value=2**20),
    )
    def test_recovery_falls_back_never_loads_garbage(
        self, tmp_path_factory, kind, offset
    ):
        from repro.chaos.explorer import _drill_snapshot

        path = str(tmp_path_factory.mktemp("ckpt") / "run.snap")
        write_snapshot(path, _drill_snapshot(10))  # rotates to .prev next
        write_snapshot(path, _drill_snapshot(20))

        pristine = Path(path).read_bytes()
        mutated = _corrupt(pristine, kind, offset)
        with open(path, "wb") as fh:
            fh.write(mutated)

        recovered = recover_snapshot(path)
        # Two valid generations exist on disk; corruption of the newest
        # must cost at most one generation, never a garbage load and
        # never a cold start.
        assert recovered is not None
        assert recovered.snapshot.total_steps in (10, 20)
        if mutated != pristine:
            if recovered.snapshot.total_steps == 10:
                assert recovered.used_fallback
                assert recovered.quarantined  # evidence kept
                for q in recovered.quarantined:
                    assert os.path.exists(q)
        else:
            assert recovered.snapshot.total_steps == 20

    def test_corrupt_both_generations_returns_none(self, tmp_path):
        from repro.chaos.explorer import _drill_snapshot

        path = str(tmp_path / "run.snap")
        write_snapshot(path, _drill_snapshot(10))
        write_snapshot(path, _drill_snapshot(20))
        for victim in (path, path + ".prev"):
            data = Path(victim).read_bytes()
            with open(victim, "wb") as fh:
                fh.write(data[: len(data) // 2])
        assert recover_snapshot(path) is None
        # Cold start is the contract — but both carcasses are evidence.
        quarantined = [
            n for n in os.listdir(tmp_path) if ".quarantined" in n
        ]
        assert len(quarantined) == 2

    def test_intact_snapshot_round_trips(self, tmp_path):
        from repro.chaos.explorer import _drill_snapshot

        path = str(tmp_path / "run.snap")
        write_snapshot(path, _drill_snapshot(10))
        assert read_snapshot(path).total_steps == 10
