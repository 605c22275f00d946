"""``python -m repro serve`` start-up, in real processes.

With a local pool, the server forks the pool's forkserver from itself once
it has loaded its modules and before it listens, so the forkserver, and
every worker forked from it, starts with everything a worker runs already
loaded, and the first miss waits for no interpreter start.  Each test runs
in a fresh interpreter (a server in its own session); every wait is
bounded, so a process that never listens, answers or exits fails the test
instead of hanging it.
"""

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.harness.campaign import CampaignCell, execute_cell
from repro.store.store import ResultStore

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads process state from /proc"
)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
WAIT_S = 60

#: ``python -c`` body: the CLI, printing after each answered batch the
#: ``repro`` modules loaded since the server said it was listening.
_REPORTING_CLI = """
import builtins, json, sys
import repro.__main__ as cli

def repro_modules():
    return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}

at_listening = set()

def report(*args, **kwargs):
    builtins.print(*args, **kwargs)
    if args and not at_listening and "listening on" in str(args[0]):
        at_listening.update(repro_modules())
        service = sys.modules["repro.store.service"].QueryService
        answer_batch = service.answer_batch

        async def reported(self, queries):
            answers = await answer_batch(self, queries)
            new = sorted(repro_modules() - at_listening)
            builtins.print("imported " + json.dumps(new), flush=True)
            return answers

        service.answer_batch = reported

cli.print = report
sys.exit(cli.main(sys.argv[1:]))
"""


#: ``python -c`` body: fork one worker from a forkserver that is either
#: forked from this process once it has loaded what ``repro serve`` loads
#: (``argv[2] == "forked"``) or started by the stdlib with its preload list
#: (``"preloaded"``); the worker runs ``argv[1]``, and this process exits
#: with the worker's exit code.
_FORKSERVER_WORKER = """
import sys
from repro import forkserver

if sys.argv[2] == "forked":
    import repro.store.service  # what the server has loaded

    forkserver.start()
worker = forkserver.context().Process(target=exec, args=(sys.argv[1],))
worker.start()
worker.join(60)
sys.exit(1 if worker.exitcode is None else worker.exitcode)
"""

#: What that worker runs: one cell, the way a pool worker does, reporting
#: the ``repro`` modules it had when it started and those the cell added.
_FIRST_TASK = """
import json, sys

def repro_modules():
    return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}

at_start = repro_modules()
from multiprocessing import forkserver
from repro.harness.campaign import CampaignCell, CellTask
from repro.harness.pool import run_attempt

cell = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
outcome = run_attempt(CellTask(cell, 1), None, None)
print(json.dumps({
    "ok": outcome.ok,
    "preloaded": "repro.harness.pool" in at_start,
    # Loaded by the server, not by the preload: the forked forkserver's mark.
    "forked": "repro.store.service" in at_start,
    # A lock held when the forkserver forked would be held here for good.
    "lock_free": forkserver._forkserver._lock.acquire(blocking=False),
    "imported": sorted(repro_modules() - at_start),
}), flush=True)
"""


def _processes():
    """``{pid: (ppid, session id, state, command line)}`` from ``/proc``."""
    found = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read().decode(errors="replace")
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # exited while we looked
        fields = stat.rsplit(")", 1)[1].split()
        found[int(name)] = (int(fields[1]), int(fields[3]), fields[0], cmdline)
    return found


def _children(pid):
    return [cmd for ppid, _sid, _state, cmd in _processes().values() if ppid == pid]


def _session(sid):
    """Processes of session ``sid`` that have not exited (zombies have)."""
    return [
        cmd for _ppid, s, state, cmd in _processes().values() if s == sid and state != "Z"
    ]


class _Server:
    """A ``repro serve`` process in its own session, read line by line.

    Use it as a context manager: leaving the block kills whatever is left
    of the session, so a failed assertion leaves no server behind.
    """

    def __init__(self, argv):
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self.next_line()
            assert "listening on http://" in line, line
        except BaseException:
            self.__exit__()
            raise
        self.port = int(line.rsplit(":", 1)[1])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # every process of the session has exited
        self.proc.wait(timeout=WAIT_S)
        self._reader.join(timeout=WAIT_S)
        self.proc.stdout.close()

    def _read(self):
        for raw in self.proc.stdout:
            self.lines.put(raw.decode().strip())
        self.lines.put(None)  # end of stream: every holder of stdout is gone

    def next_line(self):
        line = self.lines.get(timeout=WAIT_S)
        assert line is not None, "the server's output ended"
        return line

    def query(self, query):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=WAIT_S)
        try:
            conn.request("POST", "/query", body=json.dumps({"queries": [query]}))
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self):
        """SIGTERM; the exit code, once every holder of stdout has closed it."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=WAIT_S)
        self._reader.join(timeout=WAIT_S)
        assert not self._reader.is_alive(), "a process still holds the server's stdout"
        return code


def _serve(tmp_path, *extra, argv=("-m", "repro")):
    return _Server(
        list(argv)
        + ["serve", "--store", str(tmp_path / "store"), "--port", "0", "--jobs", "1"]
        + list(extra)
    )


@pytest.mark.parametrize("start", ["forked", "preloaded"])
def test_a_forkserver_worker_runs_its_first_cell_importing_no_repro_module(start):
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", _FORKSERVER_WORKER, _FIRST_TASK, start],
        env=env,
        capture_output=True,
        text=True,
        timeout=WAIT_S,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {
        "ok": True,
        "preloaded": True,
        "forked": start == "forked",
        "lock_free": True,
        "imported": [],
    }


def test_first_hit_and_first_miss_import_no_repro_module(tmp_path):
    stored = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    ResultStore(str(tmp_path / "store")).put(stored, execute_cell(stored))
    with _serve(tmp_path, argv=("-c", _REPORTING_CLI)) as server:
        assert server.next_line().startswith("repro serve: store ")
        hit = {"benchmark": "wc", "design_point": "HEAVYWT", "trip_count": 48}
        miss = {"benchmark": "fir", "design_point": "HEAVYWT", "trip_count": 40}
        for query, was_hit in ((hit, True), (miss, False)):
            status, doc = server.query(query)
            assert status == 200 and doc["answers"][0]["hit"] is was_hit, doc
            assert server.next_line() == "imported []"
        assert server.stop() == 0


@pytest.mark.parametrize("queue_mode", [False, True], ids=["local-pool", "queue"])
def test_sigterm_before_any_query_exits_0_and_leaves_no_process(tmp_path, queue_mode):
    extra = ["--queue", str(tmp_path / "queue")] if queue_mode else []
    with _serve(tmp_path, *extra) as server:
        sid = server.proc.pid
        started = _session(sid)
        # A local pool's forkserver is forked before `listening`; the
        # resource tracker starts with the first worker.
        assert len(started) == (1 if queue_mode else 2), started
        assert len(_children(sid)) == len(started) - 1, started
        assert server.stop() == 0
        deadline = time.monotonic() + WAIT_S
        while _session(sid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session(sid) == []
