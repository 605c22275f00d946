"""``repro serve`` — the async batch-query front end over the result store.

The design-space study as a *service*: clients ask "what is the speedup
of design point X on benchmark Y at scale Z" and the server answers from the
content-addressed store (:mod:`repro.store.store`), simulating only on a
miss.  The shape follows the ordered-streaming systems the ROADMAP names
(Prasaad et al.; FastFlow): a single async dispatch plane absorbs heavy
concurrent query traffic, while the actual work — cell simulation — runs
on a decoupled worker farm (the local worker pool campaigns use, or
external workers pulling from the shared
:class:`~repro.store.dispatch.WorkQueue`).

Three guarantees:

* **hits never schedule work** — a stored digest is answered straight
  from disk, with only the store read on the critical path;
* **misses simulate exactly once** — concurrent queries naming the same
  digest coalesce onto one in-flight task
  (:attr:`QueryService.inflight`), so a thundering herd of identical
  queries costs one simulation; the store's dedupe semantics extend the
  same property across processes and hosts;
* **stdlib only** — the HTTP layer is a minimal HTTP/1.1 implementation
  on an :class:`asyncio.Protocol` (one request per connection); no web
  framework enters the dependency set.

Endpoints::

    GET  /healthz       liveness + store reachability
    GET  /metrics       Prometheus text: serve/dispatch/store/span metrics
    GET  /metrics.json  the same surface as a JSON snapshot
    POST /query         {"queries": [{...}, ...]}  ->  {"answers": [...]}

A query names a cell the way campaign grids do::

    {"benchmark": "wc", "design_point": "HEAVYWT", "scale": 0.5,
     "speedup": true}

An optional ``"kernel"`` of ``"reference"`` or ``"event"`` names the one
stepping loop either way and reaches the same store entry; any other name
answers 400.  ``trip_count`` pins the iteration count exactly; otherwise
``scale`` multiplies the benchmark's experiment default — the same knob
the CLI grids use.  ``"speedup": true`` additionally resolves the benchmark's
single-threaded baseline cell (through the same store/coalescing path)
and reports ``baseline_cycles / cycles``, the paper's Figure-9 metric.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import re
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import forkserver
from repro.core.design_points import get_design_point
from repro.harness.campaign import CampaignCell, CampaignPolicy, CellTask, cell_config
from repro.harness.experiments import EXPERIMENT_TRIPS, experiment_trips
from repro.harness.pool import WorkerPool
from repro.obs import runtime as _obs
from repro.obs.events import new_cid
from repro.obs.registry import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.spans import span as _span
from repro.store.dispatch import WorkQueue
from repro.store.store import ResultStore, StoreEntry, cell_digest, publish

__all__ = [
    "IO_RETRIES",
    "IO_RETRY_BASE",
    "LocalExecutor",
    "QueryError",
    "QueryService",
    "QueueExecutor",
    "RETRY_AFTER_S",
    "ServeHandle",
    "executor_stats",
    "render_prometheus",
    "start_service",
    "sync_gauges",
]

#: Store/queue I/O retry budget: a flaky mount gets this many attempts
#: with exponential backoff (``IO_RETRY_BASE * 2**i`` seconds) before the
#: query degrades to a 503 — bounded, so a dead disk cannot pin queries
#: forever, and generous enough to ride out a transient burst.
IO_RETRIES = 4
IO_RETRY_BASE = 0.05

#: Seconds clients are told to back off when a request is shed.
RETRY_AFTER_S = 1


class QueryError(Exception):
    """A query that cannot be answered (bad spec, failed simulation)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


#: The serve counters by ``/metrics.json`` key, with their help text; each
#: is the ``repro_serve_<key>_total`` family on ``/metrics``.
SERVE_COUNTERS = {
    "queries": "Queries received (all outcomes)",
    "batches": "POST /query batches received",
    "hits": "Queries answered straight from the store",
    "misses": "Queries that scheduled a simulation",
    # Attached to an already-in-flight miss instead of scheduling their own.
    "coalesced": "Queries coalesced onto an in-flight miss",
    "errors": "Queries answered with an error",
    # Refused with 503 because the in-flight bound was hit.
    "shed": "Batches shed with 503 (overload)",
    "timeouts": "Queries that hit the 504 budget",
    "io_errors": "Store I/O errors absorbed by retries",
}

#: Fixed-bucket histogram of answered-query latency: zero-duration
#: observations land in the smallest bucket, anything beyond the largest
#: boundary in ``+Inf`` only.
QUERY_LATENCY = "repro_serve_query_latency_seconds"


# ----------------------------------------------------------------------
# Miss executors
# ----------------------------------------------------------------------


class LocalExecutor:
    """Resolve misses on the campaigns' worker pool (:mod:`repro.harness.pool`).

    Each attempt commits through :func:`~repro.store.store.publish`, and
    transient failures (a killed or dead worker, a timeout, a result the
    store could not take) retry under the campaign rule.  The event loop
    only awaits: one waiting thread per worker blocks on the pool, so
    misses beyond ``jobs`` queue for a free worker.  Publication happens on
    the loop thread, keeping the store instance single-writer in this
    process.
    """

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 2,
        wall_clock_budget: Optional[float] = None,
    ) -> None:
        self.store = store
        # ``forkserver``, not the platform-default ``fork``: the pool
        # starts its workers lazily on the first miss, by which time the
        # server holds open client sockets — plain-forked workers would
        # inherit those fds and keep them alive long after the response,
        # so clients reading to EOF (Connection: close) would never see
        # it.  Forkserver children fork from a helper that holds none of
        # the server's client descriptors (a fresh interpreter, or a fork
        # of the server made before it opened a socket) and has the
        # worker's modules loaded (:mod:`repro.forkserver`).
        self.pool = WorkerPool(
            CampaignPolicy(jobs=jobs, wall_clock_budget=wall_clock_budget),
            forkserver.context(),
        )
        self._waiters = concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="serve-pool"
        )
        #: Cells currently submitted to the pool (the depth gauge's measure:
        #: > ``jobs`` means misses are queueing behind a saturated pool).
        self.depth = 0

    async def resolve(self, cell: CampaignCell, digest: str) -> StoreEntry:
        loop = asyncio.get_running_loop()
        cid = _obs.current_cid()
        policy = self.pool.policy
        attempt = 1
        self.depth += 1
        try:
            with _span("dispatch.wait", cid=cid, executor="local", digest=digest[:16]):
                while True:
                    outcome = await loop.run_in_executor(
                        self._waiters, self.pool.run, CellTask(cell, attempt, cid=cid)
                    )
                    outcome, entry = publish(
                        self.store, cell, outcome, {"campaign": "serve", "attempt": attempt},
                        cid=cid,
                    )
                    delay = policy.retry_delay(cell.key(), attempt, outcome)
                    if delay is None:
                        break
                    await asyncio.sleep(delay)
                    attempt += 1
        finally:
            self.depth -= 1
        if entry is None:
            raise QueryError(
                f"simulation failed: {outcome.error_type}: {outcome.error}", status=502
            )
        return entry

    def stats(self) -> Dict[str, object]:
        """Pool shape for the executor gauges (``/metrics``)."""
        return {"kind": "local", "pool_size": self.pool.policy.jobs, "depth": self.depth}

    def close(self) -> None:
        """Stop the workers and wait for every one of them to exit."""
        self.pool.close()
        self._waiters.shutdown(wait=True)


class QueueExecutor:
    """Resolve misses by enqueueing onto the shared work queue (the fleet).

    The serve process never simulates: it enqueues the miss (idempotent —
    a digest already queued by another dispatcher shares the entry) and
    awaits the store, where some external :func:`~repro.store.dispatch.run_worker`
    publishes the result.  ``timeout`` bounds how long a query will wait
    for the fleet before erroring out.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: WorkQueue,
        poll: float = 0.2,
        timeout: Optional[float] = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.poll = poll
        self.timeout = timeout

    async def resolve(self, cell: CampaignCell, digest: str) -> StoreEntry:
        cid = _obs.current_cid()
        self.queue.enqueue(cell, cid=cid)
        if _obs.active():
            _obs.emit("dispatch.enqueue", cid=cid, digest=digest, queue=self.queue.root)
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        with _span("dispatch.wait", cid=cid, executor="queue", digest=digest[:16]):
            while True:
                fate, found = self.queue.fate(self.store, digest)
                if fate == "stored":
                    return found
                if fate == "failed":
                    raise QueryError(
                        f"simulation failed on worker: "
                        f"{found.get('error_type')}: {found.get('error')}",
                        status=502,
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise QueryError(
                        f"no worker produced {digest[:16]} within "
                        f"{self.timeout:g}s (is the fleet running?)",
                        status=504,
                    )
                await asyncio.sleep(self.poll)

    def stats(self) -> Dict[str, object]:
        """Queue shape for the executor gauges (``/metrics``)."""
        out: Dict[str, object] = {"kind": "queue"}
        try:
            out.update(self.queue.stats())
        except OSError:
            out["error"] = "queue stats unavailable"
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


def _query_cell(query: Dict[str, object]) -> CampaignCell:
    """Build the cell a query names; :class:`QueryError` on a bad spec.

    The names it uses are looked up here, and a query with overrides has
    its machine config built (:func:`~repro.harness.campaign.cell_config`),
    so a query that cannot run answers 400 and never reaches the executor.
    Without overrides a cell runs its design point's own config, which is
    valid.
    """
    if not isinstance(query, dict):
        raise QueryError("each query must be a JSON object")
    if "benchmark" not in query:
        raise QueryError("query is missing 'benchmark'")
    benchmark = str(query["benchmark"])
    if benchmark not in EXPERIMENT_TRIPS:
        raise QueryError(f"unknown benchmark {benchmark!r}")
    try:
        trip_count = query.get("trip_count")
        if trip_count is None:
            scale = float(query.get("scale", 1.0))
            if scale <= 0:
                raise QueryError("'scale' must be positive")
            if not math.isfinite(scale):
                raise QueryError("'scale' must be finite")
            trip_count = experiment_trips(benchmark, scale)
        cell = CampaignCell(
            benchmark=benchmark,
            design_point=str(query.get("design_point", "HEAVYWT")),
            kind=str(query.get("kind", "benchmark")),
            trip_count=int(trip_count),
            overrides=dict(query.get("overrides") or {}),
            stages=query.get("stages"),
            kernel=str(query.get("kernel", "reference")),
        ).validate()
        if cell.overrides:
            cell_config(cell)
        elif cell.kind != "single":  # the baseline runs no design point
            get_design_point(cell.design_point)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise QueryError(f"bad query spec: {exc}") from exc
    return cell


class QueryService:
    """Store-backed query answering with in-flight miss coalescing.

    Degradation knobs (all off by default, zero cost when unused):

    * ``query_timeout`` — per-query wall-clock bound; a query that
      outlives it answers ``504`` instead of hanging its client.
    * ``max_inflight`` — bound on concurrently-processing queries; the
      HTTP layer sheds whole batches beyond it with ``503`` +
      ``Retry-After`` rather than queueing unboundedly.
    * Store reads ride an :data:`IO_RETRIES`-deep backoff budget; while
      errors persist the service reports ``degraded`` (with the cause)
      from ``/healthz`` and keeps answering what it can.
    """

    def __init__(
        self,
        store: ResultStore,
        executor,
        registry: Optional[MetricsRegistry] = None,
        query_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store = store
        self.executor = executor
        #: Home of the serve counters and the latency histogram: a private
        #: registry by default; ``repro serve --obs-log`` passes the
        #: process-wide one, so spans, store, dispatch and kernel metrics
        #: share one ``/metrics`` surface.
        self.registry = registry if registry is not None else MetricsRegistry()
        # Bound once: a registry lookup takes its lock, and a hit counts
        # four or five times.
        self._counters = {
            key: self.registry.counter(f"repro_serve_{key}_total", help_text)
            for key, help_text in SERVE_COUNTERS.items()
        }
        self._latency = self.registry.histogram(
            QUERY_LATENCY, "Wall-clock latency of answered queries", buckets=LATENCY_BUCKETS_S
        )
        self.query_timeout = query_timeout
        self.max_inflight = max_inflight
        #: digest -> the one task resolving it; concurrent queries await it.
        self.inflight: Dict[str, "asyncio.Task[StoreEntry]"] = {}
        #: digest -> cid of the query that *started* the in-flight miss
        #: (observability only; coalesced queries log it as their leader).
        self.inflight_cids: Dict[str, str] = {}
        #: Queries currently being answered (the shedding bound's measure).
        self.active = 0
        #: Drain flag: set by SIGTERM / :meth:`ServeHandle.drain`; new
        #: requests are refused, in-flight ones finish.
        self.draining = False
        #: Why the service is degraded, or ``None`` when healthy.
        self.degraded_cause: Optional[str] = None

    def count(self, key: str) -> None:
        """Add one to the serve counter ``key`` (a :data:`SERVE_COUNTERS` key)."""
        self._counters[key].inc()

    def snapshot(self) -> Dict[str, object]:
        """The ``serve`` section of ``GET /metrics.json``: every counter by
        key, plus the latency histogram and its mean and maximum."""
        out: Dict[str, object] = {key: c.value for key, c in self._counters.items()}
        latency = self._latency.snapshot()
        queries = out["queries"]
        avg = latency["sum"] / queries if queries else 0.0
        out["latency_avg_ms"] = round(avg * 1e3, 3)
        out["latency_max_ms"] = round(latency["max"] * 1e3, 3)
        out["latency_histogram"] = latency
        return out

    def state(self) -> Tuple[str, Optional[str]]:
        """``(ok|degraded|draining, cause)`` for ``/healthz``."""
        if self.draining:
            return "draining", "shutdown requested; finishing in-flight queries"
        if self.degraded_cause is not None:
            return "degraded", self.degraded_cause
        return "ok", None

    async def _store_get(self, digest: str, cid: Optional[str] = None) -> Optional[StoreEntry]:
        """Store lookup with the I/O retry budget; 503 once it runs dry.

        A flaky read marks the service degraded (``/healthz`` reports the
        cause); the first clean read clears it — degradation tracks the
        *present* disk, not history.
        """
        last: Optional[Exception] = None
        with _span("store.lookup", cid=cid, digest=digest[:16]) as sp:
            for attempt in range(IO_RETRIES):
                try:
                    entry = self.store.get(digest)
                except OSError as exc:
                    last = exc
                    self.count("io_errors")
                    self.degraded_cause = f"store I/O failing: {exc}"
                    await asyncio.sleep(IO_RETRY_BASE * (2**attempt))
                    continue
                self.degraded_cause = None
                sp.note(result="hit" if entry is not None else "miss")
                return entry
        raise QueryError(
            f"store unavailable after {IO_RETRIES} attempts: {last}", status=503
        )

    async def resolve_cell(
        self, cell: CampaignCell, cid: Optional[str] = None
    ) -> Tuple[StoreEntry, bool, bool]:
        """Resolve one cell; returns ``(entry, hit, coalesced)``."""
        digest = cell_digest(cell)
        entry = await self._store_get(digest, cid=cid)
        if entry is not None:
            self.count("hits")
            if _obs.active():
                _obs.emit("store.hit", cid=cid, digest=digest)
            return entry, True, False
        task = self.inflight.get(digest)
        if task is not None:
            self.count("coalesced")
            if _obs.active():
                _obs.emit(
                    "serve.coalesce",
                    cid=cid,
                    digest=digest,
                    leader=self.inflight_cids.get(digest),
                )
            entry = await asyncio.shield(task)
            return entry, False, True
        self.count("misses")
        if _obs.active():
            _obs.emit("serve.miss", cid=cid, digest=digest)
            # The ContextVar rides into the task the executor runs under
            # (asyncio copies the ambient context at task creation), so
            # executors — including third-party ones with the plain
            # ``resolve(cell, digest)`` signature — can recover the cid
            # via :func:`repro.obs.runtime.current_cid`.
            token = _obs.set_cid(cid)
            try:
                task = asyncio.ensure_future(self.executor.resolve(cell, digest))
            finally:
                _obs.reset_cid(token)
            if cid is not None:
                self.inflight_cids[digest] = cid
        else:
            task = asyncio.ensure_future(self.executor.resolve(cell, digest))
        self.inflight[digest] = task

        def _retire(t: "asyncio.Task[StoreEntry]") -> None:
            # Deregistered when the TASK finishes — not when a waiter is
            # cancelled (a timed-out query's shielded task keeps running,
            # and later queries must still coalesce onto it).  Touching
            # the exception keeps an abandoned failure out of asyncio's
            # never-retrieved log.
            self.inflight.pop(digest, None)
            self.inflight_cids.pop(digest, None)
            if not t.cancelled():
                t.exception()

        task.add_done_callback(_retire)
        entry = await asyncio.shield(task)
        return entry, False, False

    async def _answer_cell(
        self, query: Dict[str, object], cid: Optional[str] = None
    ) -> Dict[str, object]:
        """The un-guarded answer path (wrapped in the timeout by the caller)."""
        cell = _query_cell(query)
        entry, hit, coalesced = await self.resolve_cell(cell, cid=cid)
        answer: Dict[str, object] = {
            "ok": True,
            "digest": entry.digest,
            "hit": hit,
            "coalesced": coalesced,
            "cycles": entry.cycles,
            "fingerprint": entry.fingerprint,
            "kernel": cell.kernel,
            "trip_count": cell.trip_count,
        }
        if query.get("speedup") and cell.kind != "single":
            baseline = CampaignCell(
                benchmark=cell.benchmark,
                kind="single",
                trip_count=cell.trip_count,
                kernel=cell.kernel,
            ).validate()
            base_entry, base_hit, base_coalesced = await self.resolve_cell(
                baseline, cid=cid
            )
            answer["baseline_cycles"] = base_entry.cycles
            answer["baseline_digest"] = base_entry.digest
            answer["baseline_hit"] = base_hit
            if base_coalesced:
                answer["baseline_coalesced"] = True
            answer["speedup"] = (
                round(base_entry.cycles / entry.cycles, 4)
                if entry.cycles > 0
                else None
            )
        return answer

    async def answer_query(self, query: Dict[str, object]) -> Dict[str, object]:
        """Answer one query dict; never raises — errors become data.

        With obs enabled, every query gets a fresh correlation ID; the
        answer carries it back to the client (``"cid"``) so ``repro obs
        tail --cid`` starts from the HTTP response in hand.
        """
        self.count("queries")
        self.active += 1
        cid = new_cid() if _obs.active() else None
        started = time.monotonic()
        answer: Optional[Dict[str, object]] = None
        with _span(
            "serve.query", cid=cid, benchmark=query.get("benchmark") if isinstance(query, dict) else None
        ) as sp:
            try:
                if self.draining:
                    raise QueryError("server is draining", status=503)
                if self.query_timeout is None:
                    answer = await self._answer_cell(query, cid=cid)
                else:
                    try:
                        answer = await asyncio.wait_for(
                            self._answer_cell(query, cid=cid),
                            timeout=self.query_timeout,
                        )
                    except asyncio.TimeoutError:
                        # The in-flight task keeps running under its shield:
                        # a later retry can still coalesce onto (or hit) its
                        # result.
                        self.count("timeouts")
                        raise QueryError(
                            f"query exceeded the {self.query_timeout:g}s budget",
                            status=504,
                        ) from None
            except QueryError as exc:
                self.count("errors")
                answer = {"ok": False, "error": str(exc), "status": exc.status}
            except Exception as exc:  # noqa: BLE001 - a query must never kill the server
                self.count("errors")
                answer = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                }
            finally:
                self.active -= 1
                self._latency.observe(time.monotonic() - started)
            if cid is not None:
                answer["cid"] = cid
                sp.note(
                    ok=bool(answer.get("ok")),
                    hit=answer.get("hit"),
                    status=answer.get("status"),
                )
        return answer

    async def answer_batch(self, queries: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Answer a batch concurrently — duplicates coalesce inside the batch.

        A one-query batch is answered in the caller's task: ``gather`` would
        wrap it in a task of its own and cost a loop turn, for no
        concurrency.
        """
        self.count("batches")
        if len(queries) == 1:
            return [await self.answer_query(queries[0])]
        return list(await asyncio.gather(*(self.answer_query(q) for q in queries)))


def executor_stats(executor) -> Dict[str, object]:
    """The executor's load shape, tolerating executors without ``stats()``."""
    stats_fn = getattr(executor, "stats", None)
    if not callable(stats_fn):
        return {"kind": type(executor).__name__}
    try:
        out = stats_fn()
    except OSError:
        return {"kind": type(executor).__name__, "error": "stats unavailable"}
    return out if isinstance(out, dict) else {"kind": type(executor).__name__}


def sync_gauges(service: QueryService) -> None:
    """Fold the *instantaneous* serve state into the metrics registry.

    Counters update at their call sites; gauges (in-flight misses,
    active queries, executor pool depth, store/queue stats) are
    point-in-time reads, synced at scrape so ``/metrics`` always shows
    the present — load shedding is visible as depth/active climbing
    toward the bound *before* the first 503.
    """
    reg = service.registry
    reg.gauge(
        "repro_serve_inflight_misses",
        "Distinct digests currently being simulated for queries",
    ).set(len(service.inflight))
    reg.gauge(
        "repro_serve_active_queries", "Queries currently being answered"
    ).set(service.active)
    reg.gauge("repro_serve_draining", "1 while the server drains").set(
        1 if service.draining else 0
    )
    reg.gauge("repro_serve_degraded", "1 while store I/O is failing").set(
        1 if service.degraded_cause is not None else 0
    )
    ex = executor_stats(service.executor)
    kind = str(ex.get("kind", "unknown"))
    for key, val in ex.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        reg.gauge(
            f"repro_executor_{key}", "Miss-executor load gauge", kind=kind
        ).set(val)
    try:
        store_stats = service.store.stats()
    except OSError:
        store_stats = {}
    for key, val in store_stats.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        reg.gauge(f"repro_store_{key}", "Result-store stats field").set(val)


def render_prometheus(service: QueryService) -> str:
    """The ``GET /metrics`` body: registry state in Prometheus text format."""
    sync_gauges(service)
    return service.registry.render_prometheus()


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 on asyncio.Protocol
# ----------------------------------------------------------------------

#: Refuse larger request bodies (a query batch has no business being 16 MiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Refuse a larger header block, request line included (64 KiB): it bounds
#: what a connection buffers before its request is known.
MAX_HEADER_BYTES = 64 * 1024

#: The empty line that ends a header block: ``\r\n`` or a bare ``\n``.
_HEAD_END = re.compile(rb"\n\r?\n")


def _http_response(
    status: int,
    payload: Dict[str, object],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 413: "Payload Too Large",
               500: "Internal Server Error", 503: "Service Unavailable",
               504: "Gateway Timeout"}
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


def _http_text_response(status: int, text: str, content_type: str) -> bytes:
    """Non-JSON response (the Prometheus exposition body)."""
    body = text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} OK\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


def _parse_head(head: bytes) -> Tuple[str, str, int]:
    """Method, path and ``Content-Length`` of a header block (without its
    ending empty line); :class:`ValueError` when it is malformed or the
    body would be too large."""
    lines = head.split(b"\n")
    parts = lines[0].decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError("malformed request line")
    content_length = 0
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    if not 0 <= content_length <= MAX_BODY_BYTES:
        raise ValueError("bad or too large Content-Length")
    return parts[0].upper(), parts[1], content_length


@dataclass
class ServeHandle:
    """A running server: address, service internals, and shutdown."""

    server: asyncio.AbstractServer
    service: QueryService
    host: str
    port: int

    async def drain(self, grace: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        The SIGTERM path.  Marks the service draining (``/healthz`` says
        so; new queries get 503), stops accepting connections, waits up to
        ``grace`` seconds for active queries to complete, then closes.
        Returns ``True`` when everything in flight finished in time.
        """
        self.service.draining = True
        self.server.close()
        deadline = time.monotonic() + grace
        while self.service.active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.service.active == 0
        await self.close()
        return drained

    async def close(self) -> None:
        self.server.close()
        await self.server.wait_closed()
        close = getattr(self.service.executor, "close", None)
        if close is not None:
            close()


async def _route(service: QueryService, method: str, path: str, body: bytes) -> bytes:
    """The response to one parsed request."""
    if method == "GET" and path == "/healthz":
        state, cause = service.state()
        health: Dict[str, object] = {
            "ok": state == "ok",
            "state": state,
            "store": service.store.root,
            "inflight": len(service.inflight),
            "active": service.active,
        }
        if cause is not None:
            health["cause"] = cause
        # Health stays a 200 even degraded/draining: the prober wants
        # the diagnosis, not a connection slammed in its face.
        return _http_response(200, health)
    if method == "GET" and path == "/metrics":
        # Prometheus text exposition: the whole registry — serve
        # counters + latency histograms, span self-time, executor
        # pool depth, in-flight gauges, store/queue stats.
        return _http_text_response(
            200,
            render_prometheus(service),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    if method == "GET" and path == "/metrics.json":
        sync_gauges(service)
        return _http_response(
            200,
            {
                "ok": True,
                "serve": service.snapshot(),
                "store": service.store.stats(),
                "executor": executor_stats(service.executor),
                "inflight": len(service.inflight),
                "active": service.active,
                "registry": service.registry.snapshot(),
            },
        )
    if method == "POST" and path == "/query":
        try:
            doc = json.loads(body or b"{}")
        except json.JSONDecodeError:
            return _http_response(400, {"ok": False, "error": "body is not JSON"})
        if isinstance(doc, dict) and "queries" in doc:
            queries = doc["queries"]
        elif isinstance(doc, list):
            queries = doc
        else:
            queries = [doc]
        if not isinstance(queries, list):
            return _http_response(
                400, {"ok": False, "error": "'queries' must be a list"}
            )
        if service.draining:
            return _http_response(
                503,
                {"ok": False, "error": "server is draining"},
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
        if (
            service.max_inflight is not None
            and service.active + len(queries) > service.max_inflight
        ):
            # Load shedding: refuse the whole batch now, cheaply, with
            # a back-off hint — never queue unboundedly and never hang.
            service.count("shed")
            return _http_response(
                503,
                {
                    "ok": False,
                    "error": (
                        f"overloaded: {service.active} quer(ies) in "
                        f"flight (bound {service.max_inflight})"
                    ),
                    "retry_after_s": RETRY_AFTER_S,
                },
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
        answers = await service.answer_batch(queries)
        ok = all(a.get("ok") for a in answers)
        return _http_response(200, {"ok": ok, "answers": answers})
    return _http_response(404, {"ok": False, "error": f"no route {method} {path}"})


class _Connection(asyncio.Protocol):
    """One client connection: buffer one request, answer it, close.

    Bytes are buffered until the header block and its ``Content-Length``
    body are in; then one task routes the request, writes the response and
    closes the transport.  A malformed or oversized header block, a body
    over :data:`MAX_BODY_BYTES`, and an end of stream before the request is
    complete each answer 400 at once.  Every response says ``Connection:
    close``, so bytes after the request are dropped.
    """

    def __init__(self, service: QueryService, tasks: Set["asyncio.Task[None]"]) -> None:
        self.service = service
        #: The server's answering tasks, held until each is done.
        self.tasks = tasks
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        #: Bytes of ``buffer`` already searched for the end of the headers.
        self.scanned = 0
        #: ``(method, path, body offset, Content-Length)`` once the header
        #: block is in.
        self.head: Optional[Tuple[str, str, int, int]] = None
        #: Set once a response is under way; later bytes are dropped.
        self.responding = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        if self.responding:
            return
        self.buffer += data
        if self.head is None:
            # Resume two bytes back: the ending "\n\r\n" may straddle the
            # previous chunk.
            end = _HEAD_END.search(self.buffer, max(0, self.scanned - 2))
            self.scanned = len(self.buffer)
            if end is None or end.start() > MAX_HEADER_BYTES:
                if len(self.buffer) > MAX_HEADER_BYTES:
                    self._reject()
                return
            try:
                method, path, length = _parse_head(bytes(self.buffer[: end.start()]))
            except ValueError:
                self._reject()
                return
            self.head = (method, path, end.end(), length)
        method, path, start, length = self.head
        if len(self.buffer) - start < length:
            return
        body = bytes(self.buffer[start : start + length])
        self.responding = True
        self.buffer = bytearray()
        task = asyncio.get_running_loop().create_task(self._answer(method, path, body))
        self.tasks.add(task)
        task.add_done_callback(self._answered)

    def eof_received(self) -> bool:
        if not self.responding:
            self._reject()  # the stream ended before a complete request
        # Keep the transport: a half-closed client still reads its answer,
        # and the answering task closes it.
        return True

    def _reject(self) -> None:
        self.responding = True
        self.transport.write(_http_response(400, {"ok": False, "error": "bad request"}))
        self.transport.close()

    async def _answer(self, method: str, path: str, body: bytes) -> None:
        try:
            self.transport.write(await _route(self.service, method, path, body))
        finally:
            self.transport.close()

    def _answered(self, task: "asyncio.Task[None]") -> None:
        self.tasks.discard(task)
        exc = None if task.cancelled() else task.exception()
        if exc is not None:
            task.get_loop().call_exception_handler(
                {"message": "answering a request failed", "exception": exc, "task": task}
            )


async def start_service(
    store: ResultStore,
    executor,
    host: str = "127.0.0.1",
    port: int = 0,
    query_timeout: Optional[float] = None,
    max_inflight: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ServeHandle:
    """Start the HTTP front end; ``port=0`` picks a free port.

    Returns a :class:`ServeHandle` whose ``port`` is the bound port and
    whose :meth:`~ServeHandle.close` stops the server and the executor.
    ``query_timeout`` / ``max_inflight`` arm the degradation knobs
    (:class:`QueryService`); both default off.  ``registry`` is where the
    service records its metrics (``repro serve --obs-log`` passes the
    process-wide obs registry); ``None`` gives it a private one.
    """
    service = QueryService(
        store,
        executor,
        registry,
        query_timeout=query_timeout,
        max_inflight=max_inflight,
    )

    tasks: Set["asyncio.Task[None]"] = set()
    server = await asyncio.get_running_loop().create_server(
        lambda: _Connection(service, tasks), host=host, port=port
    )
    bound_port = server.sockets[0].getsockname()[1]
    return ServeHandle(server=server, service=service, host=host, port=bound_port)


async def serve_forever(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8763,
    jobs: int = 2,
    queue_root: Optional[str] = None,
    wall_clock_budget: Optional[float] = None,
    query_timeout: Optional[float] = None,
    max_inflight: Optional[int] = None,
    drain_grace: float = 30.0,
    ready: Optional[Callable[[ServeHandle], None]] = None,
    obs_log: Optional[str] = None,
) -> None:
    """CLI entry: build store + executor, serve until SIGTERM or cancel.

    SIGTERM triggers a graceful drain (:meth:`ServeHandle.drain`): the
    listener closes, in-flight queries get up to ``drain_grace`` seconds
    to finish, new ones are shed with 503 — never a mid-response cut.

    ``wall_clock_budget`` (``--budget``) bounds one local miss simulation,
    or, with ``queue_root``, how long a miss waits for the fleet before it
    answers 504.

    ``obs_log`` (the ``--obs-log`` flag) arms ``repro.obs``: correlated
    events/spans append to that shared JSONL path, and the service records
    its metrics in the process-wide registry so ``GET /metrics`` covers
    spans and everything else the process observes.  Left ``None``, nothing
    is recorded and the serve path keeps its zero-overhead shape.
    """
    registry: Optional[MetricsRegistry] = None
    if obs_log is not None:
        state = _obs.configure(log_path=obs_log)
        registry = state.registry
        state.emit("serve.start", host=host, port=port, store=store_root)
    store = ResultStore(store_root)
    if queue_root is not None:
        executor = QueueExecutor(store, WorkQueue(queue_root), timeout=wall_clock_budget)
    else:
        executor = LocalExecutor(store, jobs=jobs, wall_clock_budget=wall_clock_budget)
    handle = await start_service(
        store,
        executor,
        host=host,
        port=port,
        query_timeout=query_timeout,
        max_inflight=max_inflight,
        registry=registry,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        sigterm_wired = True
    except (NotImplementedError, RuntimeError):
        sigterm_wired = False  # non-UNIX loop; cancellation still works
    try:
        # Announced once SIGTERM drains: a SIGTERM sent as soon as the
        # server says it is ready must not find the default handler.
        if ready is not None:
            ready(handle)
        await stop.wait()  # until SIGTERM (or this task is cancelled)
        await handle.drain(grace=drain_grace)
    finally:
        if sigterm_wired:
            loop.remove_signal_handler(signal.SIGTERM)
        await handle.close()
        if _obs.active():
            _obs.emit("serve.stop", queries=handle.service.snapshot()["queries"])
