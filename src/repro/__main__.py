"""``python -m repro``: list and run the reproduction's experiments.

Examples::

    python -m repro list
    python -m repro run figure7 --scale 0.25
    python -m repro run table1 pipeline_scaling
    python -m repro run all --scale 0.1 --jobs 4
    python -m repro run figure7 --kernel event     # same figures, faster host
    python -m repro bench --quick --check          # kernel perf trajectory

    python -m repro campaign run --grid figure7 --ledger fig7.jsonl --jobs 4
    python -m repro campaign status --ledger fig7.jsonl
    python -m repro campaign resume --grid figure7 --ledger fig7.jsonl --jobs 4

    # Checkpoint every 20k simulated cycles: killed/preempted cells resume
    # mid-run (bit-identically) instead of restarting from cycle 0.
    python -m repro campaign run --grid pipeline --ledger pipe.jsonl \\
        --jobs 4 --checkpoint-every 20000

    # Content-addressed result store: the second run is 100% store hits.
    python -m repro campaign run --grid smoke --ledger a.jsonl --store ./store
    python -m repro campaign run --grid smoke --ledger b.jsonl --store ./store

    # Fleet mode: enqueue misses, let external workers drain the queue.
    python -m repro campaign run --grid figure7 --ledger f.jsonl \\
        --store ./store --workers-external &
    python -m repro store worker --store ./store      # on any host sharing ./store

    python -m repro store stats --store ./store
    python -m repro serve --store ./store --port 8763 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.sim.kernel import KERNEL_NAMES

#: Named campaign grids ``campaign run`` can build.  ``resume`` rebuilds the
#: same grid (cells never started leave no spec in the ledger, so the grid
#: definition — not the ledger — is the source of truth for what to run).
CAMPAIGN_GRIDS = ("figure7", "figure12", "pipeline", "smoke")


def _first_doc_line(fn) -> str:
    doc = fn.__doc__ or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def _campaign_grid(name: str, scale: float, kernel: str = "reference"):
    """Build the named grid's campaign cells."""
    from repro.core.design_points import FIGURE7_ORDER, FIGURE12_ORDER
    from repro.harness.campaign import CampaignCell
    from repro.harness.experiments import EXPERIMENT_TRIPS
    from repro.pipeline.scaling import PIPELINE_BENCHMARKS, SCALING_POINTS
    from repro.workloads.suite import BENCHMARK_ORDER

    def trips(bench: str) -> int:
        return max(32, int(EXPERIMENT_TRIPS[bench] * scale))

    if name == "figure7":
        return [
            CampaignCell(
                benchmark=b, design_point=p, trip_count=trips(b), kernel=kernel
            )
            for b in BENCHMARK_ORDER
            for p in FIGURE7_ORDER
        ]
    if name == "figure12":
        return [
            CampaignCell(
                benchmark=b, design_point=p, trip_count=trips(b), kernel=kernel
            )
            for b in BENCHMARK_ORDER
            for p in FIGURE12_ORDER
        ]
    if name == "pipeline":
        cells = [
            CampaignCell(
                benchmark=b, kind="single", trip_count=trips(b), kernel=kernel
            )
            for b in PIPELINE_BENCHMARKS
        ]
        cells += [
            CampaignCell(
                benchmark=b,
                design_point=p,
                kind="pipeline",
                stages=k,
                trip_count=trips(b),
                kernel=kernel,
            )
            for b in PIPELINE_BENCHMARKS
            for k in (2, 4)
            for p in SCALING_POINTS
        ]
        return cells
    if name == "smoke":
        return [
            CampaignCell(
                benchmark=b,
                design_point=p,
                trip_count=max(32, int(64 * scale)),
                kernel=kernel,
            )
            for b in ("wc", "fir")
            for p in FIGURE7_ORDER
        ]
    raise KeyError(f"unknown campaign grid {name!r}; known: {CAMPAIGN_GRIDS}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Support for High-Frequency Streaming in CMPs' "
            "(MICRO 2006): regenerate the paper's tables and figures, plus "
            "the pipeline-scaling study."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the available experiments")
    run = sub.add_parser("run", help="run named experiments and print them")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="NAME",
        help=f"experiment names ({', '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help=(
            "multiplier on per-benchmark iteration counts (tables ignore "
            "it; use e.g. 0.1 for a quick smoke)"
        ),
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for each experiment's grid (1 = serial "
            "in-process, the default)"
        ),
    )
    run.add_argument(
        "--kernel",
        default="reference",
        choices=KERNEL_NAMES,
        help=(
            "simulation stepping kernel; bit-identical figures either way, "
            "'event' is the fast path (default: reference)"
        ),
    )

    camp = sub.add_parser(
        "campaign",
        help=(
            "resilient campaign runner: worker pool, watchdog timeouts, "
            "retries, and a crash-safe resume ledger"
        ),
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)
    crun = csub.add_parser(
        "run", help="run a named grid, recording every attempt in the ledger"
    )
    cresume = csub.add_parser(
        "resume",
        help=(
            "replay the ledger, answer stored cells from the store, re-queue "
            "in-flight ones, and finish the grid"
        ),
    )
    for p in (crun, cresume):
        p.add_argument(
            "--grid",
            default="figure7",
            choices=CAMPAIGN_GRIDS,
            help="named cell grid to run (default: figure7)",
        )
        p.add_argument(
            "--ledger",
            required=True,
            help="JSONL ledger path (one record per cell attempt)",
        )
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument(
            "--jobs", type=int, default=1, help="worker processes (default 1)"
        )
        p.add_argument(
            "--budget",
            type=float,
            default=None,
            help=(
                "wall-clock seconds per cell attempt; with --workers-external, "
                "how long one attempt waits for the fleet (default: no limit)"
            ),
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=3,
            help="attempts per cell; only transient failures retry (default 3)",
        )
        p.add_argument(
            "--recheck",
            action="store_true",
            help=(
                "re-run cells already stored and verify their determinism "
                "fingerprints against the store's golden values"
            ),
        )
        p.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="CYCLES",
            help=(
                "snapshot each cell every N simulated cycles so killed or "
                "preempted workers resume mid-run instead of from cycle 0 "
                "(default: off)"
            ),
        )
        p.add_argument(
            "--checkpoint-dir",
            default=None,
            help=(
                "directory for per-cell snapshot files "
                "(default: <ledger>.ckpt next to the ledger)"
            ),
        )
        p.add_argument(
            "--kernel",
            default="reference",
            choices=KERNEL_NAMES,
            help=(
                "simulation stepping kernel for every cell; part of the "
                "cell key, so a resume must use the same kernel as the run "
                "it resumes (default: reference)"
            ),
        )
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help=(
                "content-addressed result store, the only record of results: "
                "cells already stored are hits (no re-run), fresh results "
                "publish back (default: <ledger>.store next to the ledger)"
            ),
        )
        p.add_argument(
            "--workers-external",
            action="store_true",
            help=(
                "do not simulate locally: enqueue store misses on the shared "
                "work queue and wait for external 'repro store worker' "
                "processes to publish results (requires --store; the ledger, "
                "resume and retry rules are the local pool's)"
            ),
        )
        p.add_argument(
            "--queue",
            default=None,
            metavar="DIR",
            help=(
                "work-queue directory for --workers-external "
                "(default: <store>/queue)"
            ),
        )
        p.add_argument(
            "--obs-log",
            default=None,
            metavar="FILE",
            help=(
                "enable repro.obs: correlated JSONL events + spans into "
                "FILE, one cid per cell (default: off, zero overhead)"
            ),
        )
    cstatus = csub.add_parser(
        "status", help="summarize a campaign: its ledger's attempts and its store's results"
    )
    cstatus.add_argument("--ledger", required=True)

    store = sub.add_parser(
        "store",
        help="inspect and maintain a result store, or run a queue worker",
    )
    ssub = store.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("stats", "print store + queue counters as JSON"),
        ("verify", "full-scan every entry (CRC + fingerprint), quarantine bad ones"),
        ("gc", "sweep orphaned tmp files and aged quarantine"),
        ("worker", "lease cells from the shared queue and publish results"),
    ):
        sp = ssub.add_parser(name, help=help_text)
        sp.add_argument("--store", required=True, metavar="DIR")
        sp.add_argument(
            "--queue",
            default=None,
            metavar="DIR",
            help="work-queue directory (default: <store>/queue)",
        )
        if name == "gc":
            sp.add_argument(
                "--quarantine-max-age",
                type=float,
                default=None,
                metavar="SECONDS",
                help="also delete quarantined entries older than this",
            )
        if name == "worker":
            sp.add_argument(
                "--worker-id",
                default=None,
                help="lease owner label (default: host:pid)",
            )
            sp.add_argument(
                "--max-cells",
                type=int,
                default=None,
                help="stop after N cells (default: drain the queue)",
            )
            sp.add_argument(
                "--budget",
                type=float,
                default=None,
                help="wall-clock seconds per cell (default: no watchdog)",
            )
            sp.add_argument(
                "--lease-ttl",
                type=float,
                default=None,
                help="seconds before an unrenewed lease is reclaimable",
            )
            sp.add_argument(
                "--obs-log",
                default=None,
                metavar="FILE",
                help=(
                    "enable repro.obs: worker claim/publish events + sim "
                    "spans into FILE (default: off, zero overhead)"
                ),
            )

    serve = sub.add_parser(
        "serve",
        help=(
            "async batch-query service over the store: hits from disk, "
            "misses simulated exactly once"
        ),
    )
    serve.add_argument("--store", required=True, metavar="DIR")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8763)
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="local simulation processes for misses (default 2)",
    )
    serve.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help=(
            "dispatch misses onto this work queue for external workers "
            "instead of simulating locally"
        ),
    )
    serve.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock seconds per local miss simulation",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=None,
        help="seconds a query waits for the fleet before erroring (queue mode)",
    )
    serve.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per query before a 504 (default: unbounded)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "shed queries with 503 + Retry-After once this many are "
            "in flight (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds SIGTERM waits for in-flight queries before closing",
    )
    serve.add_argument(
        "--obs-log",
        default=None,
        metavar="FILE",
        help=(
            "enable repro.obs: one correlation id per query, structured "
            "events + cross-layer spans into FILE, Prometheus /metrics "
            "(default: off, zero overhead)"
        ),
    )

    obs = sub.add_parser(
        "obs",
        help=(
            "observability toolkit: tail one request's correlated event "
            "chain, roll spans up into a latency report, export Perfetto"
        ),
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    otail = osub.add_parser(
        "tail",
        help="print one correlation chain (or list every cid in the log)",
    )
    otail.add_argument("--log", required=True, metavar="FILE")
    otail.add_argument(
        "--cid",
        default=None,
        help="correlation id to follow (default: list the cids present)",
    )
    oreport = osub.add_parser(
        "report", help="span rollup: count, total/self/mean/max time per span"
    )
    oreport.add_argument("--log", required=True, metavar="FILE")
    oexport = osub.add_parser(
        "export", help="write the spans as a Perfetto-loadable Chrome trace"
    )
    oexport.add_argument("--log", required=True, metavar="FILE")
    oexport.add_argument("--out", required=True, metavar="JSON")
    oexport.add_argument(
        "--cid", default=None, help="limit the export to one correlation id"
    )

    chaos = sub.add_parser(
        "chaos",
        help=(
            "crash-point exploration drill: walk every durable-write site "
            "of each fleet operation under kill/torn/power crash models"
        ),
    )
    chaos.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="scratch directory for drill worlds (default: a tempdir)",
    )
    chaos.add_argument(
        "--modes",
        default=None,
        help="comma-separated subset of kill,torn,power (default: all)",
    )
    chaos.add_argument(
        "--ops",
        default=None,
        help="comma-separated subset of operation names (default: all)",
    )
    chaos.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-operation progress lines",
    )

    bench = sub.add_parser(
        "bench",
        help=(
            "measure simulated cycles/sec per kernel (the perf trajectory) "
            "and write the BENCH json record"
        ),
    )
    bench.add_argument("--quick", action="store_true")
    bench.add_argument("--out", default=None)
    bench.add_argument("--no-campaign", action="store_true")
    bench.add_argument("--check", action="store_true")
    return parser


def _campaign_main(parser: argparse.ArgumentParser, args) -> int:
    from repro.harness.campaign import (
        CampaignPolicy,
        campaign_status,
        render_status,
        run_campaign,
    )

    if args.campaign_command == "status":
        status = campaign_status(args.ledger)
        print(render_status(status))
        return 0 if status["complete"] else 1

    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.workers_external and args.store is None:
        parser.error("--workers-external requires --store")
    if args.workers_external and args.checkpoint_every is not None:
        parser.error("--checkpoint-every needs local workers, not --workers-external")
    if args.queue is not None and not args.workers_external:
        parser.error("--queue only applies with --workers-external")
    if args.obs_log is not None:
        from repro.obs import runtime as _obs_runtime

        _obs_runtime.configure(log_path=args.obs_log)
    cells = _campaign_grid(args.grid, args.scale, kernel=args.kernel)

    queue = None
    if args.workers_external:
        import os

        from repro.store.dispatch import WorkQueue

        queue = WorkQueue(args.queue or os.path.join(args.store, "queue"))
    policy = CampaignPolicy(
        jobs=args.jobs,
        wall_clock_budget=args.budget,
        max_attempts=args.max_attempts,
        recheck=args.recheck,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    report = run_campaign(
        cells,
        policy,
        ledger_path=args.ledger,
        resume=args.campaign_command == "resume",
        progress=print,
        store=args.store,
        queue=queue,
    )
    print(report.summary())
    ok = report.n_failed == 0 and not report.mismatches
    return 0 if ok else 1


def _store_main(args) -> int:
    import json
    import os

    from repro.store.dispatch import WorkQueue, run_worker
    from repro.store.store import ResultStore

    store = ResultStore(args.store)
    queue_root = args.queue or os.path.join(args.store, "queue")

    if args.store_command == "stats":
        doc = {"store": store.stats()}
        if os.path.isdir(queue_root):
            doc["queue"] = WorkQueue(queue_root).stats()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.store_command == "verify":
        report = store.verify()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["corrupt"] == 0 else 1
    if args.store_command == "gc":
        report = store.gc(quarantine_max_age=args.quarantine_max_age)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    # worker
    if args.obs_log is not None:
        from repro.obs import runtime as _obs_runtime

        _obs_runtime.configure(log_path=args.obs_log)
    ttl = {"lease_ttl": args.lease_ttl} if args.lease_ttl else {}
    queue = WorkQueue(queue_root, **ttl)
    counters = run_worker(
        store,
        queue,
        worker_id=args.worker_id,
        max_cells=args.max_cells,
        wall_clock_budget=args.budget,
        progress=print,
    )
    print(json.dumps(counters, sort_keys=True))
    return 0 if counters["failed"] == 0 else 1


def _serve_main(args) -> int:
    import asyncio

    from repro.store.service import serve_forever

    def ready(handle) -> None:
        print(f"repro serve: listening on http://{handle.host}:{handle.port}")
        print(f"repro serve: store {args.store}")

    try:
        asyncio.run(
            serve_forever(
                args.store,
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                queue_root=args.queue,
                wall_clock_budget=args.budget,
                queue_timeout=args.queue_timeout,
                query_timeout=args.query_timeout,
                max_inflight=args.max_inflight,
                drain_grace=args.drain_grace,
                ready=ready,
                obs_log=args.obs_log,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: stopped")
    return 0


def _obs_main(args) -> int:
    from repro.obs.events import events_for_cid, list_cids, read_events
    from repro.obs.spans import render_report, rollup, to_chrome_trace

    events = read_events(args.log)

    if args.obs_command == "tail":
        if args.cid is None:
            cids = list_cids(events)
            if not cids:
                print(f"no correlation ids in {args.log}")
                return 1
            print(f"{len(cids)} correlation id(s) in {args.log}:")
            for cid in cids:
                n = len(events_for_cid(events, cid))
                print(f"  {cid}  ({n} events)")
            return 0
        chain = events_for_cid(events, args.cid)
        if not chain:
            print(f"no events for cid {args.cid} in {args.log}")
            return 1
        t0 = float(chain[0].get("t", 0.0))
        skip = {"t", "event", "pid", "seq", "cid"}
        for record in chain:
            offset = float(record.get("t", t0)) - t0
            detail = " ".join(
                f"{k}={record[k]}"
                for k in record
                if k not in skip and record[k] is not None
            )
            print(
                f"+{offset:9.4f}s  pid {record.get('pid', '?'):>7}  "
                f"{str(record.get('event', '?')):<22} {detail}"
            )
        return 0

    if args.obs_command == "report":
        print(render_report(rollup(events)))
        return 0

    # export
    from repro.trace.export import write_trace_doc

    doc = to_chrome_trace(events, cid=args.cid)
    write_trace_doc(doc, args.out)
    print(
        f"wrote {len(doc['traceEvents'])} trace events to {args.out} "
        "(open in https://ui.perfetto.dev)"
    )
    return 0


def _chaos_main(parser: argparse.ArgumentParser, args) -> int:
    from repro.chaos import CRASH_MODES, explore, standard_operations

    modes = tuple(CRASH_MODES)
    if args.modes is not None:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        unknown = [m for m in modes if m not in CRASH_MODES]
        if unknown:
            parser.error(
                f"unknown crash mode(s) {', '.join(unknown)}; "
                f"choose from: {', '.join(CRASH_MODES)}"
            )

    operations = standard_operations()
    if args.ops is not None:
        wanted = [o.strip() for o in args.ops.split(",") if o.strip()]
        known = {op.name for op in operations}
        unknown = [o for o in wanted if o not in known]
        if unknown:
            parser.error(
                f"unknown operation(s) {', '.join(unknown)}; "
                f"choose from: {', '.join(sorted(known))}"
            )
        operations = [op for op in operations if op.name in wanted]

    progress = None if args.quiet else print
    report = explore(
        operations=operations,
        root=args.root,
        modes=modes,
        progress=progress,
    )
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in ALL_EXPERIMENTS)
        for name, fn in ALL_EXPERIMENTS.items():
            print(f"{name:<{width}}  {_first_doc_line(fn)}")
        return 0
    if args.command == "campaign":
        return _campaign_main(parser, args)
    if args.command == "store":
        return _store_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "obs":
        return _obs_main(args)
    if args.command == "chaos":
        return _chaos_main(parser, args)
    if args.command == "bench":
        from repro.bench import main as bench_main

        forwarded = []
        if args.quick:
            forwarded.append("--quick")
        if args.out is not None:
            forwarded += ["--out", args.out]
        if args.no_campaign:
            forwarded.append("--no-campaign")
        if args.check:
            forwarded.append("--check")
        return bench_main(forwarded)

    names = list(args.experiments)
    if names == ["all"]:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(ALL_EXPERIMENTS)} (or 'all')"
        )
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    failed = 0
    for name in names:
        fn = ALL_EXPERIMENTS[name]
        result = (
            fn()
            if name.startswith("table")
            else fn(args.scale, jobs=args.jobs, kernel=args.kernel)
        )
        print(result.text)
        print()
        failed += len(result.failures)
    if failed:
        print(f"{failed} cell(s) failed across the requested experiments.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
