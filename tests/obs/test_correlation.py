"""End-to-end correlation: one cid chains serve, dispatch, and campaign.

These are the tentpole acceptance tests at the integration seams —
``answer_query`` mints a cid and the story is reconstructable from the
shared log; the WorkQueue carries the cid in the pending doc without
perturbing the digest; the campaign pool stamps one cid per cell across
every retry.
"""

import asyncio

import pytest

from repro.harness.campaign import CampaignCell, execute_cell
from repro.obs import runtime
from repro.obs.events import events_for_cid, list_cids, read_events
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import spans_from_events
from repro.store.dispatch import WorkQueue, run_worker
from repro.store.service import QueryService
from repro.store.store import ResultStore, cell_digest

CELL = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
QUERY = {"benchmark": "wc", "design_point": "HEAVYWT", "trip_count": 48}


@pytest.fixture
def obs(tmp_path):
    state = runtime.configure(
        log_path=str(tmp_path / "obs.jsonl"), registry=MetricsRegistry()
    )
    yield state
    runtime.shutdown()


def _log(tmp_path):
    return read_events(str(tmp_path / "obs.jsonl"))


class InProcessExecutor:
    """Test double resolving misses in-process (keeps the serve cid chain
    in one process so the whole story is assertable synchronously)."""

    def __init__(self, store):
        self.store = store
        self.calls = []

    async def resolve(self, cell, digest):
        self.calls.append(digest)
        outcome = execute_cell(cell)
        entry, _ = self.store.put(cell, outcome)
        return entry

    def close(self):
        pass


def _service(tmp_path, registry):
    store = ResultStore(str(tmp_path / "store"))
    executor = InProcessExecutor(store)
    return QueryService(store, executor, registry), store


def test_miss_query_story_under_one_cid(obs, tmp_path):
    svc, _store = _service(tmp_path, obs.registry)

    answer = asyncio.run(svc.answer_query(dict(QUERY)))
    assert answer["ok"] and not answer["hit"]
    cid = answer["cid"]
    assert isinstance(cid, str) and len(cid) == 12

    chain = events_for_cid(_log(tmp_path), cid)
    names = [e["event"] for e in chain]
    assert "serve.miss" in names and "kernel.run" in names
    spans = {s.name for s in spans_from_events(chain)}
    assert {"serve.query", "store.lookup"} <= spans


def test_hit_and_coalesce_events_carry_cids(obs, tmp_path):
    svc, store = _service(tmp_path, obs.registry)
    store.put(CELL, execute_cell(CELL))

    hit = asyncio.run(svc.answer_query(dict(QUERY)))
    assert hit["hit"] and hit["cid"]
    events = _log(tmp_path)
    hits = [e for e in events if e["event"] == "store.hit"]
    assert [e["cid"] for e in hits] == [hit["cid"]]
    assert hits[0]["digest"] == cell_digest(CELL)

    other = {"benchmark": "wc", "design_point": "EXISTING", "trip_count": 48}
    answers = asyncio.run(svc.answer_batch([dict(other), dict(other)]))
    assert {a["coalesced"] for a in answers} == {False, True}
    coalesce = [e for e in _log(tmp_path) if e["event"] == "serve.coalesce"]
    assert len(coalesce) == 1
    leader = next(a for a in answers if not a["coalesced"])
    follower = next(a for a in answers if a["coalesced"])
    assert coalesce[0]["cid"] == follower["cid"]
    assert coalesce[0]["leader"] == leader["cid"]  # the cid that owns the run


def test_disabled_service_answers_without_cid(tmp_path):
    runtime.shutdown()
    svc, _store = _service(tmp_path, MetricsRegistry())
    answer = asyncio.run(svc.answer_query(dict(QUERY)))
    assert answer["ok"] and "cid" not in answer


def test_queue_carries_cid_without_perturbing_digest(obs, tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    queue = WorkQueue(str(tmp_path / "queue"))
    digest_with, created = queue.enqueue(CELL, cid="feedface0123")
    assert created
    assert digest_with == cell_digest(CELL)  # cid never enters the digest
    assert queue.load_doc(digest_with)["cid"] == "feedface0123"

    counters = run_worker(store, queue, worker_id="w1", drain=True)
    assert counters["ran"] == 1
    chain = events_for_cid(_log(tmp_path), "feedface0123")
    names = [e["event"] for e in chain]
    assert "worker.claim" in names and "store.publish" in names
    claim = next(e for e in chain if e["event"] == "worker.claim")
    assert claim["worker"] == "w1"
    spans = [s for s in spans_from_events(chain) if s.name == "sim.run"]
    assert len(spans) == 1 and spans[0].cid == "feedface0123"


def test_enqueue_without_obs_writes_no_cid(tmp_path):
    runtime.shutdown()
    queue = WorkQueue(str(tmp_path / "queue"))
    digest, _created = queue.enqueue(CELL)
    assert "cid" not in queue.load_doc(digest)


def test_campaign_cell_keeps_one_cid_across_events(obs, tmp_path):
    from repro.harness.campaign import CampaignPolicy, run_campaign

    report = run_campaign(
        [CELL],
        CampaignPolicy(jobs=1),
        ledger_path=str(tmp_path / "ledger.jsonl"),
    )
    assert report.n_done == 1
    events = _log(tmp_path)
    cids = list_cids(events)
    assert len(cids) == 1
    chain = events_for_cid(events, cids[0])
    names = [e["event"] for e in chain]
    for wanted in ("campaign.cell.start", "kernel.run", "campaign.cell.end"):
        assert wanted in names, names
    # the sim.run span came from the worker process, same cid
    sim = [s for s in spans_from_events(chain) if s.name == "sim.run"]
    assert len(sim) == 1 and sim[0].pid != chain[0]["pid"]
    # registry absorbed the attempt/outcome counters
    assert obs.registry.counter("repro_campaign_attempts_total").value == 1
    assert (
        obs.registry.counter("repro_campaign_cells_total", status="done").value
        == 1
    )
