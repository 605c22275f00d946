"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-event --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` reruns the
same work under timing wrappers and reports the per-layer metrics.  Human
lines (the workload's named metrics with units, provenance, notes) come
first; the last line is one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run is also appended, with
its provenance, to ``.perfbench/results.jsonl`` in the repository root.

The program under test is imported from ``src/`` of the same checkout; the
run fails without printing a result when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
RESULTS_LOG = os.path.join(STATE_DIR, "results.jsonl")

#: The simulated results of the two-thread mcf cells depend on Python's
#: string hash seed, so every process of a run uses this one; golden.json
#: was generated under it.
HASH_SEED = "0"


def pin_hash_seed(script: str) -> None:
    """Re-execute ``script`` under HASH_SEED unless already running so."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, script] + sys.argv[1:], env)


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over every file under ``src/``: identifies the code measured."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_order() -> int:
    """1-based index of this run among the runs logged in this checkout."""
    try:
        with open(RESULTS_LOG, "r", encoding="utf-8") as fh:
            return sum(1 for _ in fh) + 1
    except FileNotFoundError:
        return 1


def main(argv=None) -> int:
    pin_hash_seed(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    load_before = os.getloadavg()
    started = time.time()
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        os.path.join(STATE_DIR, f"work-{os.getpid()}"),
    )
    result = workloads.summary(outcome, bool(args.trace))
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "run_order": _run_order(),
        "started": started,
        "wall_s": time.time() - started,
    }
    for name, unit in workloads.REPORTED[args.workload].items():
        if name in outcome.report:
            print(f"{args.workload} {name} = {outcome.report[name]:.6g} {unit}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} metric {name} = {entry['value']:.6g} {entry['unit']}")
    for note in outcome.notes:
        print(f"{args.workload} note: {note}")
    print(f"{args.workload} attempted {outcome.attempted} failed {outcome.failed}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(RESULTS_LOG, "a", encoding="utf-8") as fh:
        record = {"provenance": provenance, "report": outcome.report, "result": result}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
