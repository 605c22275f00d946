"""``repro.store`` — content-addressed results, fleet dispatch, serving.

Three layers over the campaign harness:

* :mod:`repro.store.store` — the on-disk, content-addressed result store
  (digest over the canonical cell spec -> full ``RunStats`` payload with
  CRC-validated atomic entries and corruption quarantine);
* :mod:`repro.store.dispatch` — a shared-filesystem work queue with
  atomic lease files, heartbeat renewal, and stale-lease reclamation, so
  any number of hosts can drain one campaign (``run_campaign``'s queue
  backend enqueues it; ``run_worker`` drains it);
* :mod:`repro.store.service` — ``repro serve``, the asyncio batch-query
  front end that answers from the store and coalesces duplicate
  in-flight misses.
"""

from repro.store.dispatch import (
    DEFAULT_LEASE_TTL,
    Lease,
    LeaseLostError,
    QueueBackend,
    WorkQueue,
    default_worker_id,
    run_worker,
)
from repro.store.service import (
    LocalExecutor,
    QueryService,
    QueueExecutor,
    start_service,
)
from repro.store.store import (
    SPEC_SCHEMA_VERSION,
    ResultStore,
    StoreCorruptError,
    StoreEntry,
    StoreError,
    cell_digest,
    publish,
    result_from_entry,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseLostError",
    "LocalExecutor",
    "QueryService",
    "QueueBackend",
    "QueueExecutor",
    "ResultStore",
    "SPEC_SCHEMA_VERSION",
    "StoreCorruptError",
    "StoreEntry",
    "StoreError",
    "WorkQueue",
    "cell_digest",
    "default_worker_id",
    "publish",
    "result_from_entry",
    "run_worker",
    "start_service",
]
