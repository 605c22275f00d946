#!/usr/bin/env python3
"""Observability smoke — the CI acceptance drill for the repro.obs PR.

Phase 1, the correlated-serve drill: start the async query service
in-process with an obs log and a shared work queue, launch one external
``repro store worker --obs-log`` subprocess on the same log, and POST a
store-miss query.  The answer's correlation ID must chain the full
cross-process story in the shared log — ``serve.query`` span →
``serve.miss`` → ``dispatch.enqueue`` → ``worker.claim`` → ``sim.run``
span (in the worker process) → ``store.publish`` — and a repeat of the
same query must be a ``store.hit`` under a fresh cid.

Phase 2, the metrics drill: run a small campaign on the worker pool
under the same process-wide registry, then scrape ``GET /metrics`` and
validate the Prometheus text exposition — parseable samples, cumulative
histogram buckets consistent with ``_count``/``_sum``, and coverage of
the serve, executor/dispatch, campaign, and kernel metric families.  The
kernel family must count exactly the campaign's pool runs (they happen
in worker processes; the pool folds them into this registry).  ``GET
/metrics.json`` must agree on the query counters.

Phase 3, the span-tooling drill: ``repro obs tail --cid`` replays the
miss chain, ``repro obs report`` rolls the spans up, and ``repro obs
export`` writes a Perfetto-loadable Chrome trace containing the miss
query's slices.

Exits 0 on success, 1 with a diagnosis.
"""

import asyncio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.harness.campaign import (  # noqa: E402
    CampaignCell,
    CampaignPolicy,
    run_campaign,
)
from repro.obs.events import events_for_cid, read_events  # noqa: E402
from repro.obs.spans import rollup, spans_from_events  # noqa: E402
from repro.store.service import serve_forever  # noqa: E402

LAUNCH_TIMEOUT_S = 120
#: Events every store-miss chain must contain, in causal order.
MISS_CHAIN = (
    "serve.miss",
    "dispatch.enqueue",
    "worker.claim",
    "store.publish",
)
#: Metric families /metrics must cover (name prefix -> layer).
REQUIRED_FAMILIES = (
    "repro_serve_queries_total",          # serve
    "repro_serve_query_latency_seconds",  # serve histogram
    "repro_span_seconds",                 # cross-layer spans
    "repro_executor_pending",             # dispatch/executor gauges
    "repro_campaign_attempts_total",      # campaign
    "repro_sim_cycles_per_sec",           # kernel
)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _cell(trips: int = 64) -> CampaignCell:
    return CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=trips)


def _post(base: str, doc: dict) -> dict:
    req = urllib.request.Request(
        base + "/query",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=LAUNCH_TIMEOUT_S) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.read()


def _worker_proc(store_root: str, queue_root: str, obs_log: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "store", "worker",
            "--store", store_root, "--queue", queue_root,
            "--obs-log", obs_log, "--max-cells", "4",
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def validate_prometheus(text: str) -> dict:
    """Parse a 0.0.4 text exposition; returns {family: kind}.

    Validates sample syntax, and for every histogram family checks the
    cumulative-bucket invariant: counts are monotone in ``le``, the
    ``+Inf`` bucket equals ``_count``, and ``_sum``/``_count`` exist.
    """
    families: dict = {}
    samples: list = []
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(-?(?:[0-9.eE+-]+|\+?Inf|NaN))$"
    )
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"bad TYPE line: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            fail(f"unexpected comment line: {line!r}")
        m = sample_re.match(line)
        if m is None:
            fail(f"unparseable sample line: {line!r}")
        samples.append((m.group(1), m.group(2) or "", float(m.group(3))))

    for family, kind in families.items():
        if kind != "histogram":
            continue
        # Group buckets by their label set minus ``le``.
        series: dict = {}
        counts: dict = {}
        for name, labels, value in samples:
            if name == f"{family}_bucket":
                le = re.search(r'le="([^"]+)"', labels).group(1)
                rest = re.sub(r'le="[^"]+",?', "", labels).strip("{},")
                series.setdefault(rest, []).append((le, value))
            elif name == f"{family}_count":
                counts[labels.strip("{}")] = value
        if not series:
            fail(f"histogram {family} rendered no buckets")
        for rest, buckets in series.items():
            values = [v for _, v in buckets]
            if values != sorted(values):
                fail(f"{family}{{{rest}}} buckets not cumulative: {buckets}")
            if buckets[-1][0] != "+Inf":
                fail(f"{family}{{{rest}}} missing +Inf bucket")
            if rest not in counts or counts[rest] != values[-1]:
                fail(f"{family}{{{rest}}} +Inf bucket != _count")
    return families


async def drill(root: str) -> None:
    store_root = os.path.join(root, "store")
    queue_root = os.path.join(root, "queue")
    obs_log = os.path.join(root, "obs.jsonl")
    loop = asyncio.get_running_loop()
    started: asyncio.Future = loop.create_future()

    def ready(handle) -> None:
        started.set_result(f"http://{handle.host}:{handle.port}")

    server = asyncio.ensure_future(
        serve_forever(
            store_root,
            port=0,
            queue_root=queue_root,
            wall_clock_budget=LAUNCH_TIMEOUT_S,
            ready=ready,
            obs_log=obs_log,
        )
    )
    base = await asyncio.wait_for(started, timeout=30)
    worker = _worker_proc(store_root, queue_root, obs_log)
    try:
        # ---------------- Phase 1: correlated serve drill ----------------
        query = _cell().spec()
        answer = await loop.run_in_executor(
            None, _post, base, {"queries": [query]}
        )
        miss = answer["answers"][0]
        if not miss.get("ok"):
            fail(f"miss query failed: {miss}")
        if miss.get("hit"):
            fail("first query hit a fresh store")
        miss_cid = miss.get("cid")
        if not miss_cid:
            fail(f"answer carries no correlation id: {miss}")

        answer = await loop.run_in_executor(
            None, _post, base, {"queries": [query]}
        )
        hit = answer["answers"][0]
        if not (hit.get("ok") and hit.get("hit")):
            fail(f"repeat query was not a store hit: {hit}")
        if hit.get("cid") in (None, miss_cid):
            fail(f"repeat query cid not fresh: {hit.get('cid')}")

        events = read_events(obs_log)
        chain = events_for_cid(events, miss_cid)
        names = [e["event"] for e in chain]
        positions = []
        for wanted in MISS_CHAIN:
            if wanted not in names:
                fail(
                    f"cid {miss_cid} chain missing {wanted}; got {names}"
                )
            positions.append(names.index(wanted))
        if positions != sorted(positions):
            fail(f"cid {miss_cid} chain out of causal order: {names}")
        worker_pids = {
            e["pid"] for e in chain if e["event"] in ("worker.claim",)
        }
        if not worker_pids or worker_pids == {os.getpid()}:
            fail("worker.claim did not come from the external worker process")
        miss_spans = [s.name for s in spans_from_events(chain)]
        for wanted in ("serve.query", "store.lookup", "dispatch.wait", "sim.run"):
            if wanted not in miss_spans:
                fail(f"cid {miss_cid} missing span {wanted}; got {miss_spans}")
        hit_chain = events_for_cid(events, hit["cid"])
        if "store.hit" not in [e["event"] for e in hit_chain]:
            fail(f"hit cid {hit['cid']} logged no store.hit event")
        print(
            f"OK: correlated-serve drill — cid {miss_cid} chains "
            f"{len(chain)} events across pids "
            f"{sorted({e['pid'] for e in chain})}, spans {sorted(set(miss_spans))}"
        )

        # ---------------- Phase 2: metrics drill ----------------
        cells = [
            CampaignCell(benchmark=b, design_point="EXISTING", trip_count=48)
            for b in ("fir", "art")
        ]
        await loop.run_in_executor(
            None,
            lambda: run_campaign(
                cells,
                CampaignPolicy(jobs=1),
                ledger_path=os.path.join(root, "campaign.jsonl"),
            ),
        )
        prom = (await loop.run_in_executor(None, _get, base, "/metrics")).decode()
        families = validate_prometheus(prom)
        runs = re.findall(r"^repro_sim_runs_total\{[^}]*\} (\S+)$", prom, re.M)
        if sum(float(v) for v in runs) != len(cells):
            fail(
                f"repro_sim_runs_total {runs} does not count the "
                f"{len(cells)} campaign pool runs"
            )
        for family in REQUIRED_FAMILIES:
            base_name = re.sub(r"_(bucket|sum|count)$", "", family)
            if base_name not in families:
                fail(
                    f"/metrics missing family {base_name}; "
                    f"have {sorted(families)}"
                )
        doc = json.loads(
            (await loop.run_in_executor(None, _get, base, "/metrics.json")).decode()
        )
        if doc["serve"]["queries"] < 2 or doc["serve"]["misses"] != 1:
            fail(f"/metrics.json counters wrong: {doc['serve']}")
        print(
            f"OK: metrics drill — {len(families)} Prometheus families, "
            f"histograms consistent, serve counters {doc['serve']['queries']}q/"
            f"{doc['serve']['hits']}h/{doc['serve']['misses']}m"
        )
    finally:
        server.cancel()
        try:
            await server
        except (asyncio.CancelledError, Exception):
            pass
        if worker.poll() is None:
            worker.terminate()
        worker.wait(timeout=30)

    # ---------------- Phase 3: span tooling drill ----------------
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

    def cli(*argv: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            fail(f"repro {' '.join(argv)} exited {proc.returncode}: "
                 f"{proc.stdout}{proc.stderr}")
        return proc.stdout

    tail = cli("obs", "tail", "--log", obs_log, "--cid", miss_cid)
    if "worker.claim" not in tail or "store.publish" not in tail:
        fail(f"obs tail output incomplete:\n{tail}")
    report = cli("obs", "report", "--log", obs_log)
    if "serve.query" not in report or "sim.run" not in report:
        fail(f"obs report missing spans:\n{report}")
    trace_path = os.path.join(root, "obs_trace.json")
    cli("obs", "export", "--log", obs_log, "--out", trace_path, "--cid", miss_cid)
    with open(trace_path) as fh:
        trace = json.load(fh)
    slices = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e.get("name") in ("serve.query", "sim.run")
    ]
    if not slices:
        fail("Perfetto export has no serve.query/sim.run slices")
    summary = rollup(read_events(obs_log))
    print(
        f"OK: span-tooling drill — tail/report/export cover "
        f"{sorted(summary)} ({len(trace['traceEvents'])} trace events)"
    )


def main() -> None:
    root = os.environ.get("OBS_SMOKE_DIR") or tempfile.mkdtemp(prefix="obs-smoke-")
    os.makedirs(root, exist_ok=True)
    print(f"smoke dir: {root}")
    t0 = time.monotonic()
    asyncio.run(drill(root))
    print(f"obs smoke passed in {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
