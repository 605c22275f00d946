"""A campaign cell is done exactly when the store holds its digest.

The ledger journals attempts (start, end with status and timing);
results live only in the result store.  ``run_campaign`` commits
an attempt the way ``repro store worker`` does — publish, then journal —
so ``resume``, ``campaign status`` and ``--recheck`` agree on done-ness
and golden fingerprints from the store alone.  The one exception: a cell
the journal closed as failed stays failed, even when its digest is stored.
"""

import errno
import hashlib
import json
import os

import pytest

from repro.chaos.fs import ChaosFS, ChaosPlan, FaultRule
from repro.core.design_points import FIGURE7_ORDER
from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    campaign_status,
    execute_cell,
    run_campaign,
)
from repro.store.store import (
    ResultStore,
    StoreEntry,
    _encode_entry,
    cell_digest,
    stats_to_payload,
)


def _cells(n=2):
    return [
        CampaignCell(benchmark="wc", design_point=p, trip_count=48) for p in FIGURE7_ORDER
    ][:n]


def _cell_ends(ledger):
    return [r for r in CampaignLedger.read(ledger) if r["event"] == "cell-end"]


def _tampered(cell):
    """A valid result for ``cell`` whose fingerprint the simulator never gives."""
    result = execute_cell(cell)
    result.stats.threads[0].app_instructions += 1
    return result


# ----------------------------------------------------------------------
# Commit: publish, then journal
# ----------------------------------------------------------------------


def test_unpublished_result_is_a_transient_attempt_failure(tmp_path):
    # The disk refuses the first entry write: that attempt's result never
    # reached the store, so it is not done — retried, not a campaign abort.
    fs = ChaosFS(ChaosPlan(rules=[FaultRule(op="write", error=errno.ENOSPC, path_substr=".entry")]))
    store = ResultStore(str(tmp_path / "store"), fs=fs)
    ledger = str(tmp_path / "l.jsonl")
    cells = _cells()
    report = run_campaign(cells, CampaignPolicy(backoff_base=0.01), ledger_path=ledger, store=store)

    assert fs.injected == {"rule:write": 1}
    assert report.n_done == len(cells) and report.n_failed == 0
    first = cells[0].key()
    assert report.attempts == {first: 2, cells[1].key(): 1}
    assert report.retries == 1
    failed, done = [r for r in _cell_ends(ledger) if r["cell"] == first]
    assert failed["status"] == "failed" and failed["error_type"] == "OSError"
    assert failed["transient"] is True and failed["terminal"] is False
    assert "store_digest" not in failed
    assert done["status"] == "done" and done["attempt"] == 2
    assert done["store_digest"] == cell_digest(cells[0])
    assert all(store.contains(cell_digest(c)) for c in cells)


def test_unreadable_entry_is_a_transient_attempt_failure(tmp_path):
    # put() reads the digest's entry before it writes: one EIO there is a
    # sick disk, not a determinism violation.  The first read is the
    # store-first lookup, the second put's.
    cell = _cells(1)[0]
    rule = FaultRule(op="read", path_substr=cell_digest(cell), after=1)
    fs = ChaosFS(ChaosPlan(rules=[rule]))
    store = ResultStore(str(tmp_path / "store"), fs=fs)
    ledger = str(tmp_path / "l.jsonl")
    policy = CampaignPolicy(backoff_base=0.01, wall_clock_budget=60)
    report = run_campaign([cell], policy, ledger_path=ledger, store=store)

    assert fs.injected == {"rule:read": 1}
    assert report.n_done == 1 and report.n_failed == 0
    assert report.mismatches == [] and report.retries == 1
    failed, done = _cell_ends(ledger)
    assert failed["error_type"] == "OSError" and failed["transient"] is True
    assert failed["terminal"] is False
    assert done["status"] == "done" and done["attempt"] == 2
    assert campaign_status(ledger)["by_status"] == {"done": 1}


def test_store_conflict_closes_the_cell_as_failed_even_though_stored(tmp_path):
    ledger = str(tmp_path / "l.jsonl")
    cell = _cells(1)[0]
    store = ResultStore(ledger + ".store")
    store.put(cell, _tampered(cell))
    # The conflicting entry lands after the lookup, as a racing publisher's
    # would: the campaign simulates, then cannot publish.
    racing = ResultStore(ledger + ".store")
    racing.get = lambda digest: None
    report = run_campaign([cell], ledger_path=ledger, store=racing)
    assert report.mismatches == [cell.key()]
    assert report.outcomes[cell.key()].error_type == "FingerprintMismatchError"
    (end,) = _cell_ends(ledger)
    assert end["status"] == "fingerprint-mismatch" and end["terminal"] is True

    # The journal closed it as failed: status and resume keep it failed.
    assert campaign_status(ledger)["by_status"] == {"fingerprint-mismatch": 1}
    again = run_campaign([cell], ledger_path=ledger, resume=True)
    assert list(again.skipped) == [cell.key()]
    assert again.outcomes == {} and again.attempts == {}
    assert again.n_failed == 1


# ----------------------------------------------------------------------
# Resume and status read done-ness from the store
# ----------------------------------------------------------------------


def test_published_attempt_without_cell_end_is_done(tmp_path):
    # The crash window: the result was published, then the campaign died
    # before journalling the cell-end.
    ledger = str(tmp_path / "l.jsonl")
    cells = _cells()
    run_campaign(cells[:1], ledger_path=ledger)
    journal = CampaignLedger(ledger).open()
    journal.append(
        {"event": "cell-start", "cell": cells[1].key(), "attempt": 1, "spec": cells[1].spec()}
    )
    journal.close()
    ResultStore(ledger + ".store").put(cells[1], execute_cell(cells[1]))

    status = campaign_status(ledger)
    assert status["by_status"] == {"done": 2}
    assert status["in_flight"] == [] and status["complete"]

    before = len(CampaignLedger.read(ledger))
    report = run_campaign(cells, ledger_path=ledger, resume=True)
    assert report.attempts == {}  # nothing simulated
    assert sorted(report.store_hits) == sorted(c.key() for c in cells)
    new = CampaignLedger.read(ledger)[before:]
    assert not [r for r in new if r["event"] == "cell-start"]
    (end,) = [r for r in new if r["event"] == "cell-end"]
    assert end["cell"] == cells[1].key() and end["store_hit"] is True
    assert end["attempt"] == 0 and end["store_digest"] == cell_digest(cells[1])


def test_quarantined_entry_reruns_only_that_cell(tmp_path):
    ledger = str(tmp_path / "l.jsonl")
    store = ResultStore(str(tmp_path / "store"))
    cells = _cells(3)
    first = run_campaign(cells, ledger_path=ledger, store=store)
    lost = cells[1]
    store.quarantine(store.entry_path(cell_digest(lost)))

    status = campaign_status(ledger)
    assert status["by_status"] == {"done": 2, "unstored": 1}
    assert not status["complete"]

    before = len(CampaignLedger.read(ledger))
    report = run_campaign(cells, ledger_path=ledger, resume=True, store=store)
    assert report.attempts == {lost.key(): 2}
    assert sorted(report.store_hits) == sorted(c.key() for c in cells if c is not lost)
    assert not report.skipped and report.n_done == len(cells)
    assert report.outcomes[lost.key()].fingerprint() == first.outcomes[lost.key()].fingerprint()
    starts = [r for r in CampaignLedger.read(ledger)[before:] if r["event"] == "cell-start"]
    assert [r["cell"] for r in starts] == [lost.key()]
    assert store.contains(cell_digest(lost))
    assert campaign_status(ledger)["by_status"] == {"done": len(cells)}


# ----------------------------------------------------------------------
# Ledgers written before results moved to the store
# ----------------------------------------------------------------------


def _pre_change_ledger(path, cells, fingerprints):
    """A finished campaign's ledger as written before: done records copy
    cycles, fingerprint and kernel, and no store was used."""
    records = [{"event": "campaign-start", "schema": 2, "time": 0.0, "resume": False,
                "n_cells": len(cells), "n_skipped": 0, "n_store_hits": 0, "store": None}]
    for cell, fingerprint in zip(cells, fingerprints):
        records.append({"event": "cell-start", "cell": cell.key(), "attempt": 1,
                        "time": 0.0, "schema": 2, "spec": cell.spec()})
        records.append({"event": "cell-end", "cell": cell.key(), "attempt": 1,
                        "time": 0.0, "elapsed": 0.1, "terminal": True, "status": "done",
                        "cycles": 1, "fingerprint": fingerprint, "kernel": cell.kernel})
    records.append({"event": "campaign-end", "time": 0.0, "complete": True})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))


def test_pre_change_ledger_reruns_once_against_recorded_fingerprints(tmp_path):
    cells = _cells()
    golden = [execute_cell(c).fingerprint() for c in cells]
    ledger = str(tmp_path / "old.jsonl")
    _pre_change_ledger(ledger, cells, golden)
    assert campaign_status(ledger)["by_status"] == {"unstored": len(cells)}

    report = run_campaign(cells, ledger_path=ledger, resume=True)
    assert report.attempts == {c.key(): 2 for c in cells}
    assert report.n_done == len(cells) and not report.mismatches
    store = ResultStore(ledger + ".store")
    assert [store.get(cell_digest(c)).fingerprint for c in cells] == golden
    assert campaign_status(ledger)["by_status"] == {"done": len(cells)}

    again = run_campaign(cells, ledger_path=ledger, resume=True)
    assert again.attempts == {}
    assert sorted(again.store_hits) == sorted(c.key() for c in cells)


def test_pre_change_ledger_with_tampered_fingerprint_fails(tmp_path):
    cells = _cells()
    ledger = str(tmp_path / "old.jsonl")
    _pre_change_ledger(ledger, cells, ["0" * 16, execute_cell(cells[1]).fingerprint()])

    report = run_campaign(cells, ledger_path=ledger, resume=True)
    assert report.mismatches == [cells[0].key()]
    assert report.outcomes[cells[0].key()].error_type == "FingerprintMismatchError"
    assert report.outcomes[cells[1].key()].ok
    last = [r for r in _cell_ends(ledger) if r["cell"] == cells[0].key()][-1]
    assert last["status"] == "fingerprint-mismatch" and last["terminal"] is True
    store = ResultStore(ledger + ".store")
    assert not store.contains(cell_digest(cells[0]))  # never published
    assert campaign_status(ledger)["by_status"] == {"fingerprint-mismatch": 1, "done": 1}


# ----------------------------------------------------------------------
# Ledgers written under an older spec schema
# ----------------------------------------------------------------------


def _v2_address(cell):
    """``(key, digest, spec)`` a schema-v2 ledger gave ``cell``: v2 hashed
    a single-threaded cell's design point, and stamped 2 into digests."""
    spec = {**cell.spec(), "design_point": cell.design_point}
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    point = "SINGLE" if cell.kind == "single" else cell.design_point
    label = f"{cell.benchmark}/{point}"
    key = f"{label}#{hashlib.sha256(text.encode()).hexdigest()[:8]}"
    preimage = json.dumps({"schema": 2, "spec": spec}, sort_keys=True, separators=(",", ":"))
    return key, hashlib.sha256(preimage.encode()).hexdigest(), spec


def test_older_schema_ledger_reruns_its_cells(tmp_path):
    """A finished v2 campaign resumes by re-running every cell.  Its entries
    are addressed under the v2 dialect, so status counts the cells unstored
    and resume answers none from them; the v2 entries stay on disk."""
    cells = [
        CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48),
        CampaignCell(benchmark="wc", design_point="EXISTING", kind="single", trip_count=48),
    ]
    ledger = str(tmp_path / "v2.jsonl")
    store = ResultStore(ledger + ".store")
    records = [{"event": "campaign-start", "schema": 2, "time": 0.0, "resume": False,
                "n_cells": len(cells), "store": store.root}]
    fresh, old_digests = [], []
    for cell in cells:
        key, digest, spec = _v2_address(cell)
        outcome = execute_cell(cell)
        fresh.append(outcome.fingerprint())
        old_digests.append(digest)
        store._write_atomic(store.entry_path(digest), _encode_entry(StoreEntry(
            digest=digest, spec=spec, fingerprint=outcome.fingerprint(),
            cycles=outcome.cycles, stats=stats_to_payload(outcome.stats), schema=2)))
        records.append({"event": "cell-start", "cell": key, "attempt": 1, "time": 0.0,
                        "schema": 2, "spec": spec})
        records.append({"event": "cell-end", "cell": key, "attempt": 1, "time": 0.0,
                        "terminal": True, "status": "done", "store_digest": digest})
    records.append({"event": "campaign-end", "time": 0.0, "complete": True})
    with open(ledger, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)

    assert campaign_status(ledger)["by_status"] == {"unstored": 2}
    report = run_campaign(cells, ledger_path=ledger, resume=True)
    assert report.store_hits == [] and report.n_done == 2
    # Replay files the baseline's v2 history under its v3 key, so both
    # cells keep their attempt counts.
    assert _v2_address(cells[1])[0] != cells[1].key()
    assert report.attempts == {cells[0].key(): 2, cells[1].key(): 2}
    assert [store.get(cell_digest(c)).fingerprint for c in cells] == fresh
    assert all(store.contains(d) for d in old_digests)
    status = campaign_status(ledger)
    assert status["complete"] and status["by_status"] == {"done": 2}


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------


def test_cli_defaults_the_store_beside_the_ledger_and_resumes_unfinished(
    tmp_path, monkeypatch
):
    import repro.__main__ as cli

    ledger = str(tmp_path / "smoke.jsonl")
    grid = ["--grid", "smoke", "--ledger", ledger, "--scale", "0.5", "--jobs", "2"]

    interrupts = []

    def interrupted(line=""):
        # Ctrl-C lands as soon as the first cell is reported done.
        if " done [" in str(line) and not interrupts:
            interrupts.append(line)
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "print", interrupted, raising=False)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["campaign", "run"] + grid)
    assert os.path.isdir(ledger + ".store")
    start = next(r for r in CampaignLedger.read(ledger) if r["event"] == "campaign-start")
    assert start["store"] == ledger + ".store"
    store = ResultStore(ledger + ".store")
    finished = {
        r["cell"] for r in _cell_ends(ledger)
        if r["status"] == "done" and store.contains(r["store_digest"])
    }
    assert finished

    monkeypatch.setattr(cli, "print", lambda *args, **kwargs: None, raising=False)
    before = len(CampaignLedger.read(ledger))
    assert cli.main(["campaign", "resume"] + grid) == 0
    resumed = [r for r in CampaignLedger.read(ledger)[before:] if r["event"] == "cell-start"]
    n_cells = store.stats()["entries"]
    assert n_cells == 8
    assert len(resumed) == n_cells - len(finished)
    assert not finished & {r["cell"] for r in resumed}
    assert cli.main(["campaign", "status", "--ledger", ledger]) == 0
