#!/usr/bin/env python3
"""Crash-consistency + degraded-serving drill — the CI chaos job for PR 9.

Phase 1, the crash-point exploration:

    walk every durable-mutation site of every fleet operation (store
    publish, worker commit, lease claim/reclaim, ledger append, snapshot
    rotate) under the three crash models (process kill, torn write,
    power loss) and assert the post-restart invariants — nothing corrupt
    served, nothing acknowledged lost, stale leases reclaimed exactly
    once, quarantine evidence preserved, recovery convergent with the
    never-crashed run.  This is ``python -m repro chaos`` run to
    completion; any violation fails the job with the seeded plan that
    reproduces it.

Phase 2, the degraded-serving drill (in-process, asyncio):

    stand the query service up against a stalling executor and a store
    that can be made to throw ``EIO`` on demand, then verify each
    degradation contract over real HTTP: per-query timeout answers 504;
    an over-bound batch is shed with 503 + ``Retry-After``; a flaky
    store flips ``/healthz`` to ``degraded`` (with the cause) and the
    first clean read flips it back; a drain finishes in-flight work and
    reports clean.

Phase 3, the SIGTERM drill (subprocess):

    launch ``python -m repro serve`` for real, confirm ``/healthz``,
    send SIGTERM, and require a graceful zero exit — the supervisor's
    view of a rolling restart.

Writes a JSON report to ``CHAOS_DRILL_REPORT`` (CI uploads it as an
artifact).  Exits 0 on success, 1 with a diagnosis.
"""

import asyncio
import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.chaos import explore  # noqa: E402
from repro.harness.campaign import CampaignCell, execute_cell  # noqa: E402
from repro.store.service import QueryError, start_service  # noqa: E402
from repro.store.store import ResultStore, cell_digest  # noqa: E402

LAUNCH_TIMEOUT_S = 60


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# ----------------------------------------------------------------------
# Phase 1: crash-point exploration
# ----------------------------------------------------------------------


def exploration_drill(root: str) -> dict:
    report = explore(root=os.path.join(root, "explore"), progress=print)
    print(report.render())
    if not report.ok:
        fail("crash-point exploration found invariant violations (above)")
    return {
        "operations": len(report.operations),
        "trials": sum(op.trials for op in report.operations),
        "crashes": sum(op.crashes for op in report.operations),
        "violations": 0,
    }


# ----------------------------------------------------------------------
# Phase 2: degraded serving over real HTTP
# ----------------------------------------------------------------------


class StallExecutor:
    """Miss executor that blocks until released — the overload lever."""

    def __init__(self) -> None:
        self.release = asyncio.Event()
        self.stalls = 0

    async def resolve(self, cell, digest):
        self.stalls += 1
        await self.release.wait()
        raise QueryError("stall executor released without a result", status=502)

    def close(self) -> None:
        pass


class FlakyStore:
    """ResultStore proxy whose reads throw EIO while ``sick`` is set."""

    def __init__(self, inner: ResultStore) -> None:
        self._inner = inner
        self.sick = False

    def get(self, digest: str):
        if self.sick:
            raise OSError(errno.EIO, "simulated sick disk", digest)
        return self._inner.get(digest)

    def __getattr__(self, name):
        return getattr(self._inner, name)


async def _http(
    host: str, port: int, method: str, path: str, body=None
) -> tuple:
    """One HTTP/1.1 exchange; returns (status, headers, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: drill\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, doc = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(doc)


async def _serve_drill(root: str) -> dict:
    # A populated store: one tiny cell the drill can query as a hit.
    store_root = os.path.join(root, "serve-store")
    store = ResultStore(store_root)
    cell = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    outcome = execute_cell(cell)
    store.put(cell, outcome, provenance={"campaign": "chaos-drill"})
    digest = cell_digest(cell)

    flaky = FlakyStore(ResultStore(store_root))
    stall = StallExecutor()
    # The query timeout must outlast the store's I/O retry budget
    # (~0.75s of backoff), or the sick-store probe answers 504 before
    # the retries can exhaust into their 503.
    handle = await start_service(
        flaky, stall, port=0, query_timeout=2.0, max_inflight=1
    )
    host, port = handle.host, handle.port
    out: dict = {}
    try:
        # -- hit path sanity + healthy healthz --------------------------
        status, _, doc = await _http(host, port, "GET", "/healthz")
        if status != 200 or doc["state"] != "ok":
            fail(f"healthz not ok at start: {status} {doc}")
        status, _, doc = await _http(
            host, port, "POST", "/query",
            {"queries": [{"benchmark": "wc", "trip_count": 48}]},
        )
        answer = doc["answers"][0]
        if status != 200 or not answer["ok"] or not answer["hit"]:
            fail(f"warm hit query failed: {status} {doc}")

        # -- per-query timeout: a stalled miss answers 504 ---------------
        miss = {"benchmark": "wc", "design_point": "SYNCOPTI", "trip_count": 64}
        status, _, doc = await _http(
            host, port, "POST", "/query", {"queries": [miss]}
        )
        answer = doc["answers"][0]
        if answer.get("status") != 504:
            fail(f"stalled miss should answer 504, got {answer}")
        out["timeout_504"] = True

        # -- load shedding: over-bound batch gets 503 + Retry-After ------
        blocker = asyncio.create_task(
            _http(host, port, "POST", "/query", {"queries": [miss]})
        )
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while handle.service.active < 1:
            if time.monotonic() > deadline:
                fail("blocker query never became active")
            await asyncio.sleep(0.005)
        status, headers, doc = await _http(
            host, port, "POST", "/query", {"queries": [miss]}
        )
        if status != 503 or "retry-after" not in headers:
            fail(f"overload should shed 503 + Retry-After, got {status} {headers}")
        await blocker  # resolves as a 504 answer once the timeout fires
        out["shed_503"] = True

        # -- flaky store: degraded healthz, then recovery ----------------
        flaky.sick = True
        status, _, doc = await _http(
            host, port, "POST", "/query",
            {"queries": [{"benchmark": "wc", "trip_count": 48}]},
        )
        answer = doc["answers"][0]
        if answer.get("status") != 503:
            fail(f"sick store should answer 503 after retries, got {answer}")
        status, _, doc = await _http(host, port, "GET", "/healthz")
        if doc["state"] != "degraded" or "cause" not in doc:
            fail(f"healthz should report degraded with a cause, got {doc}")
        flaky.sick = False
        status, _, doc = await _http(
            host, port, "POST", "/query",
            {"queries": [{"benchmark": "wc", "trip_count": 48}]},
        )
        if not doc["answers"][0]["ok"]:
            fail(f"healed store should answer again, got {doc}")
        status, _, doc = await _http(host, port, "GET", "/healthz")
        if doc["state"] != "ok":
            fail(f"healthz should recover to ok, got {doc}")
        out["degraded_recovery"] = True

        # -- graceful drain ---------------------------------------------
        stall.release.set()  # nothing may linger past the drain
        drained = await handle.drain(grace=10.0)
        if not drained:
            fail("drain did not finish in-flight work within grace")
        out["drained"] = True
        out["metrics"] = handle.service.snapshot()
        if out["metrics"]["timeouts"] < 1 or out["metrics"]["shed"] < 1:
            fail(f"metrics did not record the drill: {out['metrics']}")
        if digest and not handle.service.store.contains(digest):
            fail("populated digest vanished during the drill")
    finally:
        stall.release.set()
        await handle.close()
    return out


def serve_drill(root: str) -> dict:
    out = asyncio.run(_serve_drill(root))
    print(
        "OK: serve drill — 504 on timeout, 503+Retry-After on overload, "
        "degraded healthz on EIO with recovery, drain clean"
    )
    return out


# ----------------------------------------------------------------------
# Phase 3: SIGTERM against a real serve process
# ----------------------------------------------------------------------


def sigterm_drill(root: str) -> dict:
    store_root = os.path.join(root, "sigterm-store")
    os.makedirs(store_root, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", store_root, "--port", "0",
            "--jobs", "1", "--drain-grace", "10",
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while "listening on" not in line:
            if proc.poll() is not None or time.monotonic() > deadline:
                fail(f"serve never came up: {line}{proc.stdout.read()}")
            line = proc.stdout.readline()
        port = int(line.rsplit(":", 1)[1])

        async def probe():
            return await _http("127.0.0.1", port, "GET", "/healthz")

        status, _, doc = asyncio.run(probe())
        if status != 200 or doc["state"] != "ok":
            fail(f"live serve healthz wrong: {status} {doc}")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=LAUNCH_TIMEOUT_S)
        if code != 0:
            fail(
                f"serve exited {code} on SIGTERM (want graceful 0):\n"
                f"{proc.stdout.read()}"
            )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("OK: sigterm drill — live serve drained and exited 0 on SIGTERM")
    return {"exit_code": 0}


def main() -> None:
    root = os.environ.get("CHAOS_DRILL_DIR") or tempfile.mkdtemp(
        prefix="chaos-drill-"
    )
    os.makedirs(root, exist_ok=True)
    print(f"drill dir: {root}")

    payload = {
        "exploration": exploration_drill(root),
        "serve": serve_drill(root),
        "sigterm": sigterm_drill(root),
    }

    report_path = os.environ.get("CHAOS_DRILL_REPORT") or os.path.join(
        root, "chaos_drill.json"
    )
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {report_path}")


if __name__ == "__main__":
    main()
