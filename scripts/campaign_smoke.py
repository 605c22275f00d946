#!/usr/bin/env python3
"""Crash/resume smoke for the campaign runner — the CI acceptance drill.

Phase 1, the crash/resume drill:

1. launch ``python -m repro campaign run --grid smoke --jobs 2`` as a
   subprocess;
2. SIGKILL it as soon as the ledger shows the first completed cell —
   a genuine mid-campaign crash, workers and all;
3. confirm ``campaign status`` reports the ledger incomplete;
4. ``campaign resume`` the same grid against the same ledger;
5. assert the grid is now complete, every cell is ``done``, and — the
   point of the ledger — every cell has exactly ONE cell-end record:
   resume never re-ran work that had already finished.

Phase 2, the checkpoint drill: run one long cell with checkpointing on,
SIGKILL the *worker process* (not the campaign) as soon as the first
complete snapshot file lands in ``<ledger>.ckpt/``, and assert the
retried attempt resumed from the checkpoint — ``resumed_from_cycle > 0`` in the done record, never cycle
0 — with a fingerprint identical to an uninterrupted serial run.

Exits 0 on success, 1 with a diagnosis on any violated property.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.harness.campaign import (  # noqa: E402
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    campaign_status,
    execute_cell,
    run_campaign,
)

#: Scale for the smoke grid: big enough that 8 cells take several seconds
#: total, so the SIGKILL reliably lands mid-campaign.
SCALE = "8"
POLL_S = 0.05
LAUNCH_TIMEOUT_S = 120


def _campaign(ledger: str, command: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", command,
            "--grid", "smoke", "--ledger", ledger,
            "--scale", SCALE, "--jobs", "2",
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _cell_ends(ledger: str) -> Counter:
    ends = Counter()
    if os.path.exists(ledger):
        for rec in CampaignLedger.read(ledger):
            if rec.get("event") == "cell-end" and rec.get("terminal"):
                ends[rec["cell"]] += 1
    return ends


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _child_pids() -> list:
    """PIDs whose parent is this process (Linux /proc walk)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                data = fh.read()
        except OSError:
            continue
        # Fields after the parenthesized comm: state, ppid, ...
        ppid = data[data.rindex(")") + 1 :].split()[1]
        if ppid != me:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        # Spare multiprocessing's bookkeeping helpers; kill only workers.
        if b"resource_tracker" in cmdline or b"semaphore_tracker" in cmdline:
            continue
        pids.append(int(entry))
    return pids


def checkpoint_drill() -> None:
    """SIGKILL a worker mid-cell; assert resume-from-checkpoint."""
    ledger = os.environ.get("CAMPAIGN_CKPT_LEDGER") or os.path.join(
        tempfile.mkdtemp(prefix="campaign-ckpt-"), "ledger.jsonl"
    )
    print(f"checkpoint drill ledger: {ledger}")
    cell = CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=3000)
    ref = execute_cell(CampaignCell.from_spec(cell.spec()))
    print(f"reference fingerprint: {ref.fingerprint()} ({ref.cycles} cycles)")

    killed = threading.Event()

    def snapshot_landed() -> bool:
        # A snapshot is written to ``<name>.ckpt.tmp`` and renamed into
        # place, so a ``.ckpt`` file is a complete generation.
        try:
            return any(f.endswith(".ckpt") for f in os.listdir(ledger + ".ckpt"))
        except OSError:
            return False

    def assassin() -> None:
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while time.monotonic() < deadline:
            if snapshot_landed():
                for pid in _child_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                killed.set()
                return
            time.sleep(POLL_S)

    thread = threading.Thread(target=assassin, daemon=True)
    thread.start()
    policy = CampaignPolicy(
        jobs=1, max_attempts=6, backoff_base=0.01, checkpoint_every=8000
    )
    report = run_campaign([cell], policy, ledger_path=ledger)
    thread.join(timeout=5)
    if not killed.is_set():
        fail("no snapshot file landed before the cell finished")

    outcome = report.outcomes[cell.key()]
    if not outcome.ok:
        fail(f"cell did not complete: {outcome.error_type}: {outcome.error}")
    if outcome.fingerprint() != ref.fingerprint():
        fail(
            "resumed fingerprint diverged: "
            f"{outcome.fingerprint()} != {ref.fingerprint()}"
        )
    records = CampaignLedger.read(ledger)
    deaths = [r for r in records if r.get("status") == "worker-died"]
    if not deaths:
        fail("ledger shows no worker-died record despite the SIGKILL")
    if not all(r.get("transient") for r in deaths):
        fail("worker-died records must be transient (retryable)")
    done = [r for r in records if r.get("status") == "done"]
    if len(done) != 1:
        fail(f"expected exactly one done record, got {len(done)}")
    resumed_from = done[0].get("resumed_from_cycle")
    if not resumed_from or resumed_from <= 0:
        fail(
            "retried attempt restarted from cycle 0 instead of the "
            f"checkpoint (resumed_from_cycle={resumed_from!r})"
        )
    leftovers = [
        f
        for f in os.listdir(ledger + ".ckpt")
        if f.endswith(".ckpt") or f.endswith(".prev")
    ]
    if leftovers:
        fail(f"snapshots not discarded after success: {leftovers}")
    print(
        f"OK: worker SIGKILLed mid-cell; resumed from cycle "
        f"{resumed_from:.0f} of {ref.cycles}, fingerprint intact"
    )


def main() -> None:
    ledger = os.environ.get("CAMPAIGN_SMOKE_LEDGER") or os.path.join(
        tempfile.mkdtemp(prefix="campaign-smoke-"), "ledger.jsonl"
    )
    print(f"ledger: {ledger}")

    # -- 1+2: run, and SIGKILL at the first completed cell -------------
    proc = _campaign(ledger, "run")
    deadline = time.monotonic() + LAUNCH_TIMEOUT_S
    while not _cell_ends(ledger):
        if proc.poll() is not None:
            fail(
                "campaign finished before we could kill it — "
                f"output:\n{proc.stdout.read()}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            fail("no cell completed within the launch timeout")
        time.sleep(POLL_S)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    done_at_kill = set(_cell_ends(ledger))
    print(f"killed campaign mid-flight with {len(done_at_kill)} cell(s) done")

    # -- 3: the ledger must say so -------------------------------------
    status = campaign_status(ledger)
    if status["complete"]:
        fail("status claims the grid is complete right after a mid-flight kill")
    print(
        f"status after kill: {status['by_status']} "
        f"(in-flight: {len(status['in_flight'])})"
    )

    # -- 4: resume ------------------------------------------------------
    proc = _campaign(ledger, "resume")
    out, _ = proc.communicate(timeout=LAUNCH_TIMEOUT_S * 4)
    if proc.returncode != 0:
        fail(f"campaign resume exited {proc.returncode} — output:\n{out}")
    print(out.strip().splitlines()[-1])

    # -- 5: complete, all done, zero re-runs ----------------------------
    status = campaign_status(ledger)
    if not status["complete"]:
        fail(f"grid still incomplete after resume: {status['by_status']}")
    if set(status["by_status"]) != {"done"}:
        fail(f"unexpected terminal statuses: {status['by_status']}")
    ends = _cell_ends(ledger)
    rerun = {cell: n for cell, n in ends.items() if n != 1}
    if rerun:
        fail(f"cells with != 1 terminal record (re-runs!): {rerun}")
    if not done_at_kill <= set(ends):
        fail("cells done at kill time vanished from the final ledger")
    print(
        f"OK: {len(ends)} cells complete, "
        f"{len(done_at_kill)} pre-kill cell(s) untouched by resume"
    )

    # -- phase 2: worker SIGKILL + resume-from-checkpoint ---------------
    checkpoint_drill()


if __name__ == "__main__":
    main()
