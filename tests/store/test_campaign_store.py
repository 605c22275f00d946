"""``run_campaign(..., store=...)``: store-first scheduling end to end.

The issue's acceptance criterion: a repeated campaign over the same grid
with ``--store`` performs zero re-simulations (all hits) and returns
fingerprints bit-identical to the cold run.  Plus: hits replay cleanly
through ``campaign status``, recheck mode re-runs against stored golden
fingerprints, and fresh results publish back automatically.
"""

import json

from repro.core.design_points import FIGURE7_ORDER
from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    campaign_status,
    run_campaign,
)
from repro.store.store import ResultStore, cell_digest


def _grid(trips=48):
    return [
        CampaignCell(benchmark="wc", design_point=p, trip_count=trips)
        for p in FIGURE7_ORDER
    ]


def test_second_campaign_is_all_hits_with_identical_fingerprints(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    cells = _grid()

    cold = run_campaign(
        cells, CampaignPolicy(), ledger_path=str(tmp_path / "a.jsonl"), store=store
    )
    assert cold.n_done == len(cells)
    assert cold.store_hits == []
    assert store.stats()["entries"] == len(cells)

    # Fresh store instance: counters prove the second run did zero work.
    warm_store = ResultStore(str(tmp_path / "store"))
    warm = run_campaign(
        cells,
        CampaignPolicy(),
        ledger_path=str(tmp_path / "b.jsonl"),
        store=warm_store,
    )
    assert warm.n_done == len(cells)
    assert sorted(warm.store_hits) == sorted(c.key() for c in cells)
    assert warm_store.writes == 0  # zero re-simulations published
    for cell in cells:
        key = cell.key()
        assert warm.outcomes[key].fingerprint() == cold.outcomes[key].fingerprint()
        assert warm.outcomes[key].cycles == cold.outcomes[key].cycles
        assert warm.outcomes[key].extras["store_hit"] is True


def test_store_hits_replay_through_campaign_status(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    cells = _grid()
    run_campaign(cells, CampaignPolicy(), store=store)

    ledger = str(tmp_path / "warm.jsonl")
    run_campaign(cells, CampaignPolicy(), ledger_path=ledger, store=store)
    status = campaign_status(ledger)
    assert status["complete"]
    assert status["by_status"] == {"done": len(cells)}

    records = CampaignLedger.read(ledger)
    hits = [r for r in records if r.get("store_hit")]
    assert len(hits) == len(cells)
    assert all(r["attempt"] == 0 for r in hits)  # no attempt was spent
    # Each names the entry that answers it; results stay in the store.
    assert sorted(r["store_digest"] for r in hits) == sorted(cell_digest(c) for c in cells)
    assert all(store.contains(r["store_digest"]) for r in hits)
    assert not any({"cycles", "fingerprint", "kernel"} & set(r) for r in hits)
    start = next(r for r in records if r["event"] == "campaign-start")
    assert start["n_store_hits"] == len(cells)


def test_store_accepts_path_like_argument(tmp_path):
    """The CLI hands a directory string; run_campaign coerces it."""
    root = str(tmp_path / "store")
    cells = _grid()[:1]
    run_campaign(cells, CampaignPolicy(), store=root)
    assert ResultStore(root).stats()["entries"] == 1


def test_recheck_reruns_against_stored_golden_fingerprints(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    cells = _grid()[:2]
    run_campaign(cells, CampaignPolicy(), store=store)

    # recheck=True must *re-simulate* (no hit short-circuit) and verify
    # the fresh fingerprints against the store's golden values.
    report = run_campaign(
        cells,
        CampaignPolicy(recheck=True),
        ledger_path=str(tmp_path / "r.jsonl"),
        store=store,
    )
    assert report.store_hits == []  # recheck never skips the run
    assert report.n_done == len(cells)
    assert report.mismatches == []


def test_failed_cells_are_not_published(tmp_path):
    import math

    from repro.faults import FaultKind, FaultPlan, FaultRule

    store = ResultStore(str(tmp_path / "store"))
    wedge = FaultPlan(
        seed=7,
        rules=(
            FaultRule(
                kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0
            ),
        ),
    )
    bad = CampaignCell(
        benchmark="wc", design_point="SYNCOPTI", trip_count=64, fault_plan=wedge
    )
    good = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    report = run_campaign([bad, good], CampaignPolicy(), store=store)
    assert report.n_failed == 1
    assert store.stats()["entries"] == 1  # only the good cell landed
    assert store.contains(cell_digest(good))
    assert not store.contains(cell_digest(bad))


def test_pooled_and_serial_store_runs_share_digests(tmp_path):
    """jobs=2 workers publish the same digests/fingerprints serial does."""
    cells = _grid()
    serial_store = ResultStore(str(tmp_path / "serial"))
    pooled_store = ResultStore(str(tmp_path / "pooled"))
    run_campaign(cells, CampaignPolicy(), store=serial_store)
    run_campaign(cells, CampaignPolicy(jobs=2), store=pooled_store)
    for cell in cells:
        digest = cell_digest(cell)
        s = serial_store.get(digest)
        p = pooled_store.get(digest)
        assert s is not None and p is not None
        assert s.fingerprint == p.fingerprint


def test_ledger_records_store_digest_on_publish(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    cells = _grid()[:1]
    ledger = str(tmp_path / "l.jsonl")
    run_campaign(cells, CampaignPolicy(), ledger_path=ledger, store=store)
    records = CampaignLedger.read(ledger)
    done = [r for r in records if r["event"] == "cell-end" and r["status"] == "done"]
    assert len(done) == 1
    assert done[0]["store_digest"] == cell_digest(cells[0])
    assert not {"cycles", "fingerprint", "kernel"} & set(done[0])  # the store holds those
    # The digest in the ledger is the store address: round-trip proves it.
    assert store.get(done[0]["store_digest"]) is not None
