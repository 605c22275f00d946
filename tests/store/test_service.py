"""``repro serve``: the async batch-query front end over the store.

Acceptance properties (the issue's tentpole criteria for layer 3):

* hits are answered from the store without scheduling any work;
* misses are simulated exactly once even when duplicate queries arrive
  concurrently (in-flight coalescing);
* speedup queries resolve the single-threaded baseline through the same
  path and report the Figure-9 ratio;
* /healthz and /metrics expose liveness and hit/miss/latency counters;
* malformed queries and bodies degrade to per-query errors or HTTP 400,
  never a hung connection.

No pytest-asyncio in the image: each test drives its own event loop via
``asyncio.run``; HTTP tests speak raw HTTP/1.1 over asyncio streams.
"""

import asyncio
import errno
import json
import os
import signal

import pytest

from repro.chaos import ChaosFS, ChaosPlan
from repro.chaos import FaultRule as ChaosRule
from repro.harness.campaign import CampaignCell, execute_cell
from repro.store.service import (
    QUERY_LATENCY,
    LocalExecutor,
    QueryService,
    _route,
    start_service,
)
from repro.store.store import ResultStore, cell_digest

CELL = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
QUERY = {"benchmark": "wc", "design_point": "HEAVYWT", "trip_count": 48}


class CountingExecutor:
    """Test double: resolves misses by running in-process, counts calls."""

    def __init__(self, store, delay=0.0):
        self.store = store
        self.delay = delay
        self.calls = []

    async def resolve(self, cell, digest):
        self.calls.append(digest)
        if self.delay:
            await asyncio.sleep(self.delay)
        outcome = execute_cell(cell)
        entry, _ = self.store.put(cell, outcome)
        return entry

    def close(self):
        pass


def _service(tmp_path, **kwargs):
    store = ResultStore(str(tmp_path / "store"))
    executor = CountingExecutor(store, **kwargs)
    return QueryService(store, executor), store, executor


# ----------------------------------------------------------------------
# QueryService semantics (no HTTP)
# ----------------------------------------------------------------------


def test_hit_answers_without_scheduling_work(tmp_path):
    svc, store, executor = _service(tmp_path)
    store.put(CELL, execute_cell(CELL))

    async def main():
        return await svc.answer_query(dict(QUERY))

    answer = asyncio.run(main())
    assert answer["ok"] and answer["hit"] and not answer["coalesced"]
    assert executor.calls == []  # the store answered; nothing scheduled
    counts = svc.snapshot()
    assert counts["hits"] == 1 and counts["misses"] == 0


def test_event_kernel_query_answers_from_the_default_entry(tmp_path):
    svc, store, executor = _service(tmp_path)
    store.put(CELL, execute_cell(CELL))

    async def main():
        return await svc.answer_query({**QUERY, "kernel": "event"})

    answer = asyncio.run(main())
    assert answer["ok"] and answer["hit"]
    assert answer["digest"] == cell_digest(CELL)
    assert executor.calls == []  # nothing simulated


def test_unknown_kernel_query_is_a_400(tmp_path):
    svc, _store, executor = _service(tmp_path)

    async def main():
        return await svc.answer_query({**QUERY, "kernel": "warp"})

    answer = asyncio.run(main())
    assert not answer["ok"] and answer["status"] == 400
    assert "kernel" in answer["error"]
    assert executor.calls == []


def test_miss_simulates_and_publishes(tmp_path):
    svc, store, executor = _service(tmp_path)

    async def main():
        return await svc.answer_query(dict(QUERY))

    answer = asyncio.run(main())
    assert answer["ok"] and not answer["hit"]
    assert executor.calls == [cell_digest(CELL)]
    assert store.contains(cell_digest(CELL))  # published for next time
    direct = execute_cell(CELL)
    assert answer["cycles"] == direct.cycles
    assert answer["fingerprint"] == direct.fingerprint()


def test_duplicate_concurrent_misses_coalesce_to_one_simulation(tmp_path):
    """The tentpole property: N identical in-flight queries, one run."""
    svc, _store, executor = _service(tmp_path, delay=0.05)

    async def main():
        return await svc.answer_batch([dict(QUERY) for _ in range(5)])

    answers = asyncio.run(main())
    assert all(a["ok"] for a in answers)
    assert len(executor.calls) == 1  # exactly one simulation
    assert sum(1 for a in answers if a["coalesced"]) == 4
    assert len({a["fingerprint"] for a in answers}) == 1
    counts = svc.snapshot()
    assert counts["misses"] == 1 and counts["coalesced"] == 4


def test_batch_mixing_hits_and_misses(tmp_path):
    svc, store, executor = _service(tmp_path)
    store.put(CELL, execute_cell(CELL))
    other = {"benchmark": "wc", "design_point": "EXISTING", "trip_count": 48}

    async def main():
        return await svc.answer_batch([dict(QUERY), dict(other)])

    answers = asyncio.run(main())
    assert answers[0]["hit"] and not answers[1]["hit"]
    assert len(executor.calls) == 1
    counts = svc.snapshot()
    assert counts["hits"] == 1 and counts["misses"] == 1


def test_speedup_query_resolves_single_baseline(tmp_path):
    svc, _store, executor = _service(tmp_path)

    async def main():
        return await svc.answer_query({**QUERY, "speedup": True})

    answer = asyncio.run(main())
    assert answer["ok"]
    baseline = CampaignCell(benchmark="wc", kind="single", trip_count=48)
    assert set(executor.calls) == {cell_digest(CELL), cell_digest(baseline)}
    single = execute_cell(baseline)
    assert answer["baseline_cycles"] == single.cycles
    assert answer["speedup"] == round(single.cycles / answer["cycles"], 4)


def test_scale_query_uses_experiment_trips(tmp_path):
    from repro.harness.experiments import EXPERIMENT_TRIPS

    svc, _store, _executor = _service(tmp_path)

    async def main():
        return await svc.answer_query(
            {"benchmark": "wc", "design_point": "HEAVYWT", "scale": 0.25}
        )

    answer = asyncio.run(main())
    assert answer["ok"]
    assert answer["trip_count"] == max(32, int(EXPERIMENT_TRIPS["wc"] * 0.25))


def test_bad_queries_become_per_query_errors(tmp_path):
    """A query that cannot run answers 400 and never reaches the executor."""
    svc, _store, executor = _service(tmp_path)
    bad = [
        {"design_point": "HEAVYWT"},  # missing benchmark
        {"benchmark": "no-such", "scale": 1.0},  # unknown
        {"benchmark": "wc", "design_point": "HEAVYWT", "scale": -1},
        {**QUERY, "design_point": "NO_SUCH_POINT"},
        {**QUERY, "benchmark": "no-such"},  # unknown, with a trip count
        {**QUERY, "overrides": {"nope": 1}},  # unknown knob
        {**QUERY, "overrides": {"queue_depth": 7}},  # not a multiple of the QLU
        {**QUERY, "overrides": {"queue_depth": 8192}},  # overruns its queue's region
        {**QUERY, "stages": 3},  # a pipeline depth on a two-stage cell
        {**QUERY, "kind": "pipeline", "stages": 3, "overrides": {"n_cores": 4}},
        {**QUERY, "kind": "single", "overrides": {"queue_depth": 7}},  # the baseline too
        {"benchmark": "bzip2", "kind": "pipeline", "stages": 3},  # a loop nest
    ]

    async def main():
        return await svc.answer_batch(bad)

    answers = asyncio.run(main())
    assert [a["ok"] for a in answers] == [False] * len(bad)
    assert all(a["status"] == 400 for a in answers), answers
    assert svc.snapshot()["errors"] == len(bad)
    assert executor.calls == []
    # A good query rides along unharmed.
    answer = asyncio.run(svc.answer_query(dict(QUERY)))
    assert answer["ok"] and executor.calls == [cell_digest(CELL)]


class RefusingExecutor:
    """Test double for queries that must never reach an executor."""

    def __init__(self):
        self.calls = []

    async def resolve(self, cell, digest):
        self.calls.append(digest)
        raise AssertionError("a bad query reached the executor")


# JSON text, not Python values: ``NaN`` and ``Infinity`` are what a client
# sends, and Python's ``json`` accepts both.  ``1e308`` is finite, but its
# trip count is not.
@pytest.mark.parametrize("scale", ['"abc"', "null", "[1]", "NaN", "Infinity", "1e308"])
def test_malformed_scale_is_a_400_that_never_reaches_the_executor(tmp_path, scale):
    executor = RefusingExecutor()
    svc = QueryService(ResultStore(str(tmp_path / "store")), executor)
    body = '{"queries": [{"benchmark": "wc", "scale": %s}]}' % scale
    raw = asyncio.run(_route(svc, "POST", "/query", body.encode()))
    assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
    (answer,) = json.loads(raw.partition(b"\r\n\r\n")[2])["answers"]
    assert answer["ok"] is False and answer["status"] == 400, answer
    assert svc.snapshot()["errors"] == 1
    assert executor.calls == []


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


async def _request(handle, method, path, body=None):
    reader, writer = await asyncio.open_connection(handle.host, handle.port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode() + b"\r\n" + payload)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=60)
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    doc = json.loads(raw.partition(b"\r\n\r\n")[2])
    return status, doc


def _serve(tmp_path, seed_cells=()):
    store = ResultStore(str(tmp_path / "store"))
    for cell in seed_cells:
        store.put(cell, execute_cell(cell))
    executor = CountingExecutor(store)

    async def run(scenario):
        handle = await start_service(store, executor)
        try:
            return await scenario(handle)
        finally:
            await handle.close()

    return run, executor


def test_http_query_healthz_metrics(tmp_path):
    run, executor = _serve(tmp_path, seed_cells=[CELL])
    other = {"benchmark": "fir", "design_point": "EXISTING", "trip_count": 48}

    async def scenario(handle):
        status, health = await _request(handle, "GET", "/healthz")
        assert status == 200 and health["ok"]

        status, doc = await _request(
            handle,
            "POST",
            "/query",
            {"queries": [dict(QUERY), dict(other), dict(other)]},
        )
        assert status == 200 and doc["ok"]
        hits = [a["hit"] for a in doc["answers"]]
        assert hits == [True, False, False]
        # the duplicated miss coalesced onto one simulation
        assert len(executor.calls) == 1
        assert sum(1 for a in doc["answers"] if a.get("coalesced")) == 1

        status, metrics = await _request(handle, "GET", "/metrics.json")
        assert status == 200
        assert metrics["serve"]["queries"] == 3
        assert metrics["serve"]["hits"] == 1
        assert metrics["serve"]["misses"] == 1
        assert metrics["serve"]["coalesced"] == 1
        assert metrics["store"]["entries"] == 2
        return True

    assert asyncio.run(run(scenario))


def test_http_bad_body_and_unknown_route(tmp_path):
    run, _executor = _serve(tmp_path)

    async def scenario(handle):
        reader, writer = await asyncio.open_connection(handle.host, handle.port)
        writer.write(
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nnot-json!"
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        assert b" 400 " in raw.split(b"\r\n", 1)[0]

        status, doc = await _request(handle, "GET", "/nope")
        assert status == 404 and not doc["ok"]
        return True

    assert asyncio.run(run(scenario))


# ----------------------------------------------------------------------
# Front-end edge behaviour: each wait is bounded, so a server that never
# answers fails the test instead of hanging it.
# ----------------------------------------------------------------------

WAIT_S = 30


async def _connect(handle):
    return await asyncio.wait_for(
        asyncio.open_connection(handle.host, handle.port), timeout=WAIT_S
    )


async def _send(writer, data):
    writer.write(data)
    await asyncio.wait_for(writer.drain(), timeout=WAIT_S)


async def _read_to_eof(reader, writer):
    raw = await asyncio.wait_for(reader.read(), timeout=WAIT_S)
    writer.close()
    return raw


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
def test_http_request_written_in_pieces_is_answered(tmp_path, eol):
    run, _executor = _serve(tmp_path, seed_cells=[CELL])
    body = json.dumps({"queries": [dict(QUERY)]}).encode()
    head = f"ery HTTP/1.1{eol}Host: t{eol}Content-Length: {len(body)}{eol}{eol}".encode()

    async def scenario(handle):
        reader, writer = await _connect(handle)
        await _send(writer, b"POST /qu")  # the request line, cut mid-line
        await asyncio.sleep(0.05)
        await _send(writer, head[:-1])  # the head, short of its last byte
        await asyncio.sleep(0.05)
        await _send(writer, head[-1:] + body)
        return await _read_to_eof(reader, writer)

    raw = asyncio.run(run(scenario))
    assert raw.startswith(b"HTTP/1.1 200 ")
    doc = json.loads(raw.partition(b"\r\n\r\n")[2])
    assert doc["ok"] and doc["answers"][0]["hit"]


def test_http_oversized_header_line_is_a_400(tmp_path):
    run, _executor = _serve(tmp_path)

    async def scenario(handle):
        reader, writer = await _connect(handle)
        await _send(
            writer,
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n",
        )
        return await _read_to_eof(reader, writer)

    assert asyncio.run(run(scenario)).startswith(b"HTTP/1.1 400 ")


def test_http_oversized_body_is_refused_before_it_is_sent(tmp_path):
    run, _executor = _serve(tmp_path)

    async def scenario(handle):
        reader, writer = await _connect(handle)
        await _send(
            writer, b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 17000000\r\n\r\n"
        )
        return await _read_to_eof(reader, writer)

    assert asyncio.run(run(scenario)).startswith(b"HTTP/1.1 400 ")


@pytest.mark.parametrize("cut", ["head", "body"])
def test_http_half_a_request_then_close_leaves_the_server_answering(tmp_path, cut):
    run, _executor = _serve(tmp_path, seed_cells=[CELL])
    body = json.dumps({"queries": [dict(QUERY)]}).encode()
    request = (
        f"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    at = request.index(b"Host") if cut == "head" else len(request) - len(body) // 2

    async def scenario(handle):
        reader, writer = await _connect(handle)
        await _send(writer, request[:at])
        writer.close()
        await asyncio.wait_for(writer.wait_closed(), timeout=WAIT_S)
        await asyncio.sleep(0.05)
        active = handle.service.active
        status, doc = await asyncio.wait_for(
            _request(handle, "POST", "/query", {"queries": [dict(QUERY)]}),
            timeout=WAIT_S,
        )
        return active, status, doc

    active, status, doc = asyncio.run(run(scenario))
    assert active == 0
    assert status == 200 and doc["answers"][0]["hit"]


def test_http_router_exception_closes_the_connection(tmp_path, monkeypatch):
    from repro.store import service as service_module

    def broken(_service):
        raise RuntimeError("scrape failed")

    monkeypatch.setattr(service_module, "render_prometheus", broken)
    run, _executor = _serve(tmp_path)

    async def scenario(handle):
        reader, writer = await _connect(handle)
        await _send(writer, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        raw = await _read_to_eof(reader, writer)
        status, health = await asyncio.wait_for(
            _request(handle, "GET", "/healthz"), timeout=WAIT_S
        )
        return raw, status, health

    raw, status, health = asyncio.run(run(scenario))
    assert raw == b""  # closed without an answer, not left waiting
    assert status == 200 and health["ok"]


def test_local_executor_resolves_misses_in_worker_processes(tmp_path):
    """The real executor: a miss runs in a pool worker and publishes."""
    store = ResultStore(str(tmp_path / "store"))
    executor = LocalExecutor(store, jobs=1)
    try:

        async def main():
            svc = QueryService(store, executor)
            return await svc.answer_query(dict(QUERY))

        answer = asyncio.run(main())
        assert answer["ok"] and not answer["hit"]
        assert answer["fingerprint"] == execute_cell(CELL).fingerprint()
        assert store.contains(cell_digest(CELL))
        (worker,) = executor.pool.processes()
        assert worker.pid != os.getpid()
    finally:
        executor.close()


#: A miss slow enough (~0.3 s) for a SIGKILL to land while it simulates.
SLOW_CELL = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=400)
SLOW_QUERY = {"benchmark": "wc", "design_point": "EXISTING", "trip_count": 400}


def test_local_executor_survives_a_worker_killed_between_misses(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = LocalExecutor(store, jobs=1)
    try:

        async def main():
            svc = QueryService(store, executor)
            first = await svc.answer_query(dict(QUERY))
            (worker,) = executor.pool.processes()
            os.kill(worker.pid, signal.SIGKILL)
            second = await svc.answer_query(dict(SLOW_QUERY))
            return first, second

        first, second = asyncio.run(main())
    finally:
        executor.close()
    assert first["ok"] and second["ok"] and not second["hit"]
    assert first["fingerprint"] == execute_cell(CELL).fingerprint()
    assert second["fingerprint"] == execute_cell(SLOW_CELL).fingerprint()


def test_local_executor_retries_a_miss_whose_worker_dies(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = LocalExecutor(store, jobs=1)
    try:

        async def main():
            svc = QueryService(store, executor)
            answer = asyncio.ensure_future(svc.answer_query(dict(SLOW_QUERY)))
            while not executor.pool.busy:
                await asyncio.sleep(0.005)
            os.kill(executor.pool.busy[0].worker.process.pid, signal.SIGKILL)
            return await answer

        answer = asyncio.run(main())
    finally:
        executor.close()
    assert answer["ok"] and not answer["hit"]
    assert answer["fingerprint"] == execute_cell(SLOW_CELL).fingerprint()
    # The dead worker's attempt was retried (transient) on a fresh one.
    entry = store.get(cell_digest(SLOW_CELL))
    assert entry.provenance["attempt"] == 2


def test_local_executor_retries_a_miss_the_store_cannot_take(tmp_path):
    """One ENOSPC on the entry write fails the attempt transiently: it is
    retried under the campaign rule, and the query is answered once."""
    digest = cell_digest(CELL)
    rule = ChaosRule(op="open", error=errno.ENOSPC, path_substr=digest)
    fs = ChaosFS(ChaosPlan(rules=[rule]))
    store = ResultStore(str(tmp_path / "store"), fs=fs)
    executor = LocalExecutor(store, jobs=1)
    try:

        async def main():
            svc = QueryService(store, executor)
            answer = await asyncio.wait_for(svc.answer_query(dict(QUERY)), timeout=120)
            return answer, svc.snapshot()

        answer, counters = asyncio.run(main())
    finally:
        executor.close()
    assert fs.injected == {"rule:open": 1}
    assert answer["ok"] and not answer["hit"]
    assert answer["fingerprint"] == execute_cell(CELL).fingerprint()
    assert store.get(digest).provenance["attempt"] == 2
    assert counters["misses"] == 1


def test_local_executor_answers_deterministic_failures_at_once(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = LocalExecutor(store, jobs=1)
    attempts = []
    run = executor.pool.run

    def counting_run(task):
        attempts.append(task.attempt)
        return run(task)

    executor.pool.run = counting_run
    try:

        async def main():
            svc = QueryService(store, executor)
            # wc condenses to 11 SCCs: 16 stages fail on the worker, every time.
            return await svc.answer_query(dict(QUERY, kind="pipeline", stages=16))

        answer = asyncio.run(main())
    finally:
        executor.close()
    assert answer["status"] == 502 and "PartitionError" in answer["error"]
    assert attempts == [1]  # deterministic: never retried


def test_queue_executor_waits_on_the_digests_fate(tmp_path):
    """Fleet mode: a miss answers once a worker publishes it, 502s once a
    worker files it failed, and 504s while nobody resolves it."""
    import math

    from repro.faults import FaultKind, FaultPlan, FaultRule
    from repro.store.dispatch import WorkQueue, run_worker
    from repro.store.service import QueryError, QueueExecutor

    store = ResultStore(str(tmp_path / "store"))
    queue = WorkQueue(str(tmp_path / "q"))
    executor = QueueExecutor(store, queue, poll=0.01, timeout=0.1)
    wedge = FaultPlan(
        seed=7,
        rules=(FaultRule(kind=FaultKind.QUEUE_SLOT_STALL, magnitude=math.inf, queue_id=0),),
    )
    bad = CampaignCell(benchmark="wc", design_point="SYNCOPTI", trip_count=64, fault_plan=wedge)

    async def outcome(cell):
        try:
            return await executor.resolve(cell, cell_digest(cell))
        except QueryError as exc:
            return exc.status

    assert asyncio.run(outcome(CELL)) == 504  # enqueued; no worker yet
    queue.enqueue(bad)
    run_worker(store, queue, worker_id="w1")
    entry = asyncio.run(outcome(CELL))
    assert entry.fingerprint == execute_cell(CELL).fingerprint()
    assert asyncio.run(outcome(bad)) == 502


# ----------------------------------------------------------------------
# Degraded-mode serving (PR 9): timeouts, shedding, drain, degraded state
# ----------------------------------------------------------------------


class StallingExecutor:
    """Test double: a miss blocks until ``release`` is set, then publishes."""

    def __init__(self, store):
        self.store = store
        self.release = asyncio.Event()
        self.calls = []

    async def resolve(self, cell, digest):
        self.calls.append(digest)
        await self.release.wait()
        outcome = execute_cell(cell)
        entry, _ = self.store.put(cell, outcome)
        return entry

    def close(self):
        pass


class FlakyStore:
    """ResultStore proxy whose reads raise OSError while ``fail_reads`` > 0."""

    def __init__(self, inner):
        self._inner = inner
        self.fail_reads = 0

    def get(self, digest):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise OSError(5, "simulated sick disk", digest)
        return self._inner.get(digest)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_query_timeout_answers_504_and_keeps_the_miss_running(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = StallingExecutor(store)
    svc = QueryService(store, executor, query_timeout=0.05)
    digest = cell_digest(CELL)

    async def main():
        first = await svc.answer_query(dict(QUERY))
        assert first["status"] == 504 and "budget" in first["error"]
        # The shielded task outlives its timed-out waiter: the simulation
        # is not wasted and later queries can still use its result.
        assert digest in svc.inflight
        executor.release.set()
        await svc.inflight[digest]
        second = await svc.answer_query(dict(QUERY))
        return second

    second = asyncio.run(main())
    assert second["ok"] and second["hit"]
    assert executor.calls == [digest]  # exactly one simulation despite the 504
    assert svc.snapshot()["timeouts"] == 1


def test_draining_service_refuses_queries_with_503(tmp_path):
    svc, _store, _executor = _service(tmp_path)
    svc.draining = True
    assert svc.state()[0] == "draining"

    async def main():
        return await svc.answer_query(dict(QUERY))

    answer = asyncio.run(main())
    assert not answer["ok"] and answer["status"] == 503


def test_flaky_store_reads_ride_the_retry_budget(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL, execute_cell(CELL))
    flaky = FlakyStore(store)
    svc = QueryService(flaky, CountingExecutor(store))
    flaky.fail_reads = 2  # two bad reads, then the disk recovers

    async def main():
        return await svc.answer_query(dict(QUERY))

    answer = asyncio.run(main())
    assert answer["ok"] and answer["hit"]
    assert svc.snapshot()["io_errors"] == 2
    assert svc.degraded_cause is None  # the clean read cleared it
    assert svc.state()[0] == "ok"


def test_dead_store_degrades_to_503_and_reports_cause(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    flaky = FlakyStore(store)
    svc = QueryService(flaky, CountingExecutor(store))
    flaky.fail_reads = 10**9  # never recovers

    async def main():
        return await svc.answer_query(dict(QUERY))

    answer = asyncio.run(main())
    assert not answer["ok"] and answer["status"] == 503
    state, cause = svc.state()
    assert state == "degraded" and "store I/O failing" in cause


def test_max_inflight_must_be_positive(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    try:
        QueryService(store, CountingExecutor(store), max_inflight=0)
    except ValueError:
        pass
    else:
        raise AssertionError("max_inflight=0 accepted")


def test_http_overload_sheds_with_503_and_retry_after(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = StallingExecutor(store)

    async def main():
        handle = await start_service(store, executor, max_inflight=1)
        try:
            blocker = asyncio.create_task(
                _request(handle, "POST", "/query", {"queries": [dict(QUERY)]})
            )
            while handle.service.active < 1:
                await asyncio.sleep(0.005)
            status, doc = await _request(
                handle, "POST", "/query", {"queries": [dict(QUERY)]}
            )
            assert status == 503
            assert doc["retry_after_s"] == 1
            assert "overloaded" in doc["error"]
            assert handle.service.snapshot()["shed"] == 1
            executor.release.set()
            status, doc = await blocker
            assert status == 200 and doc["answers"][0]["ok"]
            # healthz stayed reachable and honest throughout
            status, health = await _request(handle, "GET", "/healthz")
            assert status == 200 and health["state"] == "ok"
        finally:
            executor.release.set()
            await handle.close()
        return True

    assert asyncio.run(main())


def test_http_healthz_reports_degraded_and_draining(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = CountingExecutor(store)

    async def main():
        handle = await start_service(store, executor)
        try:
            handle.service.degraded_cause = "store I/O failing: disk on fire"
            status, health = await _request(handle, "GET", "/healthz")
            assert status == 200  # the prober wants the diagnosis
            assert health["state"] == "degraded" and not health["ok"]
            assert "disk on fire" in health["cause"]

            handle.service.degraded_cause = None
            handle.service.draining = True
            status, health = await _request(handle, "GET", "/healthz")
            assert health["state"] == "draining" and not health["ok"]
            status, doc = await _request(
                handle, "POST", "/query", {"queries": [dict(QUERY)]}
            )
            assert status == 503 and "draining" in doc["error"]
        finally:
            handle.service.draining = False
            await handle.close()
        return True

    assert asyncio.run(main())


def test_drain_finishes_inflight_work(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = StallingExecutor(store)

    async def main():
        handle = await start_service(store, executor)
        inflight = asyncio.create_task(
            _request(handle, "POST", "/query", {"queries": [dict(QUERY)]})
        )
        while handle.service.active < 1:
            await asyncio.sleep(0.005)
        executor.release.set()
        drained = await handle.drain(grace=10.0)
        assert drained is True
        status, doc = await inflight  # the in-flight query was not cut
        assert status == 200 and doc["answers"][0]["ok"]
        return True

    assert asyncio.run(main())


def test_drain_gives_up_after_grace(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    executor = StallingExecutor(store)

    async def release_later(delay):
        await asyncio.sleep(delay)
        executor.release.set()

    async def main():
        handle = await start_service(store, executor)
        inflight = asyncio.create_task(
            _request(handle, "POST", "/query", {"queries": [dict(QUERY)]})
        )
        while handle.service.active < 1:
            await asyncio.sleep(0.005)
        releaser = asyncio.create_task(release_later(0.3))
        drained = await handle.drain(grace=0.05)  # expires before release
        assert drained is False
        await releaser
        status, doc = await inflight
        assert status == 200  # still answered, just after the deadline
        return True

    assert asyncio.run(main())


# ----------------------------------------------------------------------
# Metrics registry surface (repro.obs)
# ----------------------------------------------------------------------


async def _request_text(handle, method, path):
    """Raw variant of ``_request`` for non-JSON responses (/metrics)."""
    reader, writer = await asyncio.open_connection(handle.host, handle.port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=60)
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    head, _, body = raw.partition(b"\r\n\r\n")
    return status, head.decode(), body.decode()


def test_http_metrics_prometheus_text(tmp_path):
    run, _executor = _serve(tmp_path, seed_cells=[CELL])

    async def scenario(handle):
        status, doc = await _request(
            handle, "POST", "/query", {"queries": [dict(QUERY)]}
        )
        assert status == 200 and doc["ok"]
        status, head, body = await _request_text(handle, "GET", "/metrics")
        assert status == 200
        assert "text/plain; version=0.0.4" in head
        lines = body.splitlines()
        samples = [ln for ln in lines if ln and not ln.startswith("#")]
        assert any(
            ln.startswith("repro_serve_queries_total") and ln.endswith(" 1")
            for ln in samples
        )
        assert any(ln.startswith("repro_serve_hits_total") for ln in samples)
        # Histogram exposition: cumulative buckets, +Inf, _sum/_count.
        buckets = [
            ln
            for ln in samples
            if ln.startswith("repro_serve_query_latency_seconds_bucket")
        ]
        assert buckets and 'le="+Inf"' in buckets[-1]
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts) and counts[-1] == 1
        assert any(
            ln.startswith("repro_serve_query_latency_seconds_count") and
            ln.endswith(" 1")
            for ln in samples
        )
        # TYPE headers render once per family.
        types = [ln for ln in lines if ln.startswith("# TYPE ")]
        assert len(types) == len({ln.split()[2] for ln in types})
        # Scrape-time gauges cover the executor and the store.
        assert any(ln.startswith("repro_store_entries") for ln in samples)
        return True

    assert asyncio.run(run(scenario))


def test_metrics_surface_names_are_pinned(tmp_path):
    """The ``serve`` keys of ``/metrics.json`` and the serve families of
    ``/metrics``: dashboards, ``scripts/obs_smoke.py`` and the serve
    benchmark read these names, so they change only on purpose."""
    run, _executor = _serve(tmp_path)

    async def scenario(handle):
        _, doc = await _request(handle, "GET", "/metrics.json")
        _, _, body = await _request_text(handle, "GET", "/metrics")
        return doc, body

    doc, body = asyncio.run(run(scenario))
    assert set(doc["serve"]) == {
        "queries", "batches", "hits", "misses", "coalesced", "errors", "shed",
        "timeouts", "io_errors", "latency_avg_ms", "latency_max_ms", "latency_histogram",
    }
    families = {
        ln.split()[2] for ln in body.splitlines() if ln.startswith("# TYPE repro_serve_")
    }
    assert families == {
        "repro_serve_queries_total", "repro_serve_batches_total", "repro_serve_hits_total",
        "repro_serve_misses_total", "repro_serve_coalesced_total", "repro_serve_errors_total",
        "repro_serve_shed_total", "repro_serve_timeouts_total", "repro_serve_io_errors_total",
        "repro_serve_query_latency_seconds", "repro_serve_inflight_misses",
        "repro_serve_active_queries", "repro_serve_draining", "repro_serve_degraded",
    }


def test_observe_latency_zero_duration_lands_in_first_bucket(tmp_path):
    svc, _store, _executor = _service(tmp_path)
    svc.registry.histogram(QUERY_LATENCY).observe(0.0)
    snap = svc.snapshot()
    latency = snap["latency_histogram"]
    assert latency["count"] == 1
    assert latency["buckets"][0]["count"] == 1  # cumulative: first holds it
    assert latency["max"] == 0.0
    assert snap["latency_max_ms"] == 0.0


def test_observe_latency_beyond_largest_bucket_is_inf_only(tmp_path):
    svc, _store, _executor = _service(tmp_path)
    svc.registry.histogram(QUERY_LATENCY).observe(1e6)  # way past the 30s top bucket
    snap = svc.snapshot()["latency_histogram"]
    finite = snap["buckets"][:-1]
    inf = snap["buckets"][-1]
    assert all(b["count"] == 0 for b in finite)
    assert inf["le"] == "+Inf" and inf["count"] == 1
    assert snap["sum"] == 1e6 and snap["max"] == 1e6


def test_latency_snapshot_stable_under_concurrent_updates(tmp_path):
    import threading

    svc, _store, _executor = _service(tmp_path)
    latency = svc.registry.histogram(QUERY_LATENCY)
    threads, per_thread = 8, 500
    stop = threading.Event()
    bad = []

    def hammer():
        for i in range(per_thread):
            latency.observe((i % 40) * 0.01)

    def scrape():
        while not stop.is_set():
            snap = svc.snapshot()["latency_histogram"]
            counts = [b["count"] for b in snap["buckets"]]
            # Each snapshot must be internally consistent even mid-update:
            # buckets cumulative, +Inf bucket equal to the total count.
            if counts != sorted(counts) or counts[-1] != snap["count"]:
                bad.append(snap)
                return

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    scraper = threading.Thread(target=scrape)
    scraper.start()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    stop.set()
    scraper.join()
    assert not bad
    snap = svc.snapshot()
    assert snap["latency_histogram"]["count"] == threads * per_thread
    assert snap["latency_histogram"]["buckets"][-1]["count"] == threads * per_thread
    assert snap["queries"] == 0  # counters untouched by latency path
