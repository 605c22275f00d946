"""Experiment harness: single runs, resilient sweeps, and campaigns.

Three layers, each building on the one below:

* :mod:`repro.harness.runner` — one simulation per call.
  :func:`run_benchmark` raises on failure; :func:`run_benchmark_resilient`
  converts simulation failures into structured :class:`FailedRun` /
  :class:`TimedOutRun` records instead.
* :mod:`repro.harness.experiments` — one function per table/figure of the
  paper, each a resilient grid over (benchmark x design point) cells.
* :mod:`repro.harness.campaign` — the resilient campaign runner: a worker
  pool with per-cell wall-clock watchdogs, seeded retry backoff for
  transient failures, a crash-safe JSONL journal of attempts, and the
  result store as the only record of results and their fingerprints.
"""

from repro.harness.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    CampaignReport,
    CellHistory,
    campaign_status,
    execute_cell,
    run_campaign,
    run_cells,
)
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    run_all,
    sweep,
)
from repro.harness.runner import (
    DEFAULT_TRIP_COUNT,
    FailedRun,
    RunOutcome,
    RunResult,
    TimedOutRun,
    run_benchmark,
    run_benchmark_resilient,
    run_single_threaded,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "CampaignCell",
    "CampaignLedger",
    "CampaignPolicy",
    "CampaignReport",
    "CellHistory",
    "DEFAULT_TRIP_COUNT",
    "ExperimentResult",
    "FailedRun",
    "RunOutcome",
    "RunResult",
    "TimedOutRun",
    "campaign_status",
    "execute_cell",
    "run_all",
    "run_benchmark",
    "run_benchmark_resilient",
    "run_campaign",
    "run_cells",
    "run_single_threaded",
    "sweep",
]
