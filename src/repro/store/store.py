"""Content-addressed result store: simulation-as-cache.

The simulator is deterministic end to end — identical (program x design
point x config x faults) cells reproduce
:meth:`~repro.sim.stats.RunStats.fingerprint` byte for byte — so a
completed cell's statistics are a perfect memoization target: any
campaign, query service, or ad-hoc script that names the same cell spec
can reuse the recorded result instead of re-simulating it.

**Addressing.**  A cell's address is :func:`cell_digest`: SHA-256 over the
canonical JSON of ``{"schema": SPEC_SCHEMA_VERSION, "spec": cell.spec()}``.
The spec schema version is part of the preimage, so a future change to
what a spec *means* (the way PR 7 added the ``kernel`` field) bumps every
digest instead of silently colliding versioned specs — the store-level
twin of the campaign ledger's ``schema`` stamp.

**Entries.**  One :class:`StoreEntry` per digest holds the full spec, the
run's fingerprint and cycles, the complete per-thread statistics payload
(rebuildable into :class:`~repro.sim.stats.RunStats`), the JSON-able
subset of ``RunResult.extras``, and provenance (campaign id, attempt,
host, wall-clock time) — everything a later consumer needs to treat the
stored result exactly like a fresh :class:`~repro.harness.runner.RunResult`.

**Durability.**  Writes follow the checkpoint subsystem's discipline:
encode with a magic + version + CRC32 header, write to a
writer-private temporary file, ``fsync``, ``os.replace`` into place, then
fsync the directory.  Two processes racing to publish the same digest
both perform valid atomic renames of identical content — the loser's
rename simply reinstalls the same bytes, so the race needs no lock.
Reads validate the CRC *before* parsing; a torn or bit-flipped entry is
quarantined aside for forensics (never deleted, never returned) and the
digest reports as a miss.  Every lookup reads the file; a read whose bytes
equal the ones last decoded for that digest returns the entry they decoded
to (an LRU of :data:`DECODED_ENTRIES` digests) instead of checking and
parsing them again.

**Maintenance.**  :meth:`ResultStore.verify` scans every entry and
quarantines the corrupt ones; :meth:`ResultStore.gc` clears orphaned
temporary files (and, on request, aged quarantine evidence);
:meth:`ResultStore.stats` summarizes entry counts, bytes, and this
process's hit/miss/corruption counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.harness.campaign import LEDGER_SCHEMA_VERSION, CampaignCell
from repro.harness.runner import FailedRun, RunOutcome, RunResult
from repro.obs import runtime as _obs
from repro.obs.spans import span as _span
from repro.sim.stats import COMPONENTS, RunStats, ThreadStats
from repro.store.io import TMP_MARKER, resolve_fs, write_atomic

__all__ = [
    "DECODED_ENTRIES",
    "SPEC_SCHEMA_VERSION",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "ResultStore",
    "StoreCorruptError",
    "StoreEntry",
    "StoreError",
    "cell_digest",
    "result_from_entry",
    "stats_from_payload",
    "stats_to_payload",
]

#: Version of the *cell spec schema* hashed into every digest.  Matches the
#: campaign ledger's record schema: both version the meaning of a spec, so
#: a spec-semantics change (new field, new default) can never alias an
#: old digest.
SPEC_SCHEMA_VERSION = LEDGER_SCHEMA_VERSION

#: First header token of every entry file; never reused across layouts.
STORE_MAGIC = "RPROSTORE"

#: On-disk entry format version.  Readers reject anything else.
STORE_FORMAT_VERSION = 1

#: Suffix quarantined (corrupt) entries are renamed to.
QUARANTINE_SUFFIX = ".quarantined"

#: Digests whose last decoded bytes and entry a :class:`ResultStore` keeps,
#: least recently read evicted first.  About 6 KB each, so at most ~1.6 MB.
DECODED_ENTRIES = 256


class StoreError(RuntimeError):
    """A stored entry conflicts with a new result, or failed validation.

    Store I/O errors are not wrapped: they surface as the :class:`OSError`
    the filesystem raised.
    """


class StoreCorruptError(StoreError):
    """An entry file failed validation (magic/version/length/CRC/decode).

    Callers must treat the file as untrusted: quarantine it and treat the
    digest as a miss.  Never retried in place.
    """


def cell_digest(cell: CampaignCell) -> str:
    """Canonical content address of one campaign cell spec.

    Full SHA-256 hex over compact sorted-key JSON of the versioned spec.
    Distinct from :meth:`CampaignCell.key` (a human-scannable label with 8
    digest hex digits): the store needs the full 256-bit address so grid
    collisions are out of the question at any fleet size.
    """
    preimage = json.dumps(
        {"schema": SPEC_SCHEMA_VERSION, "spec": cell.validate().spec()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Stats payloads
# ----------------------------------------------------------------------


def stats_to_payload(stats: RunStats) -> Dict[str, object]:
    """Plain-data form of a :class:`RunStats` (JSON-able, rebuildable)."""
    return {
        "threads": [t.canonical() for t in stats.threads],
        "host_seconds": stats.host_seconds,
    }


#: ThreadStats counter fields restored verbatim from a payload.  No numeric
#: coercion anywhere in the round trip: the simulator legitimately leaves
#: some counters as floats (fractional stall attribution), and the
#: fingerprint hashes the JSON *rendering* — ``1242.0`` and ``1242`` are
#: different canonical texts, so int-ifying a float would silently change
#: the fingerprint of an otherwise bit-identical result.
_THREAD_FIELDS = (
    "thread_id",
    "cycles",
    "app_instructions",
    "comm_instructions",
    "produces",
    "consumes",
    "queue_full_stall",
    "queue_empty_stall",
    "spin_reissues",
    "ozq_backpressure_events",
    "stream_cache_hits",
    "stream_cache_misses",
    "lines_forwarded",
)


def stats_from_payload(payload: Dict[str, object]) -> RunStats:
    """Rebuild a :class:`RunStats` from :func:`stats_to_payload` output."""
    threads = []
    for t in payload["threads"]:
        fields = {name: t[name] for name in _THREAD_FIELDS}
        components = {name: t["components"][name] for name in COMPONENTS}
        threads.append(ThreadStats(components=components, **fields))
    return RunStats(
        threads=threads, host_seconds=float(payload.get("host_seconds", 0.0))
    )


def _jsonable_extras(extras: Dict[str, object]) -> Dict[str, object]:
    """The JSON-representable subset of ``RunResult.extras``.

    Extras are derived observability payloads (per-hop delays, bus
    utilization), never fingerprint inputs — dropping a non-serializable
    value loses convenience, not correctness.
    """
    out: Dict[str, object] = {}
    for key, value in extras.items():
        try:
            out[key] = json.loads(json.dumps(value))
        except (TypeError, ValueError):
            continue
    return out


@dataclass(frozen=True)
class StoreEntry:
    """One stored cell result: address, payloads, and provenance.

    Frozen because a store hands the same object to every lookup whose read
    returns the same bytes (:meth:`ResultStore.get`).
    """

    digest: str
    spec: Dict[str, object]
    fingerprint: str
    cycles: int
    stats: Dict[str, object]
    extras: Dict[str, object] = field(default_factory=dict)
    #: Who produced this entry: ``{"campaign", "attempt", "host", "pid",
    #: "time", "kernel"}`` — observability only, never part of the digest.
    provenance: Dict[str, object] = field(default_factory=dict)
    #: Spec schema version the digest was computed under.
    schema: int = SPEC_SCHEMA_VERSION

    def canonical(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "schema": self.schema,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "cycles": self.cycles,
            "stats": self.stats,
            "extras": self.extras,
            "provenance": self.provenance,
        }

    @classmethod
    def from_canonical(cls, doc: Dict[str, object]) -> "StoreEntry":
        return cls(
            digest=doc["digest"],
            spec=doc["spec"],
            fingerprint=doc["fingerprint"],
            cycles=int(doc["cycles"]),
            stats=doc["stats"],
            extras=dict(doc.get("extras") or {}),
            provenance=dict(doc.get("provenance") or {}),
            schema=int(doc.get("schema", SPEC_SCHEMA_VERSION)),
        )


def result_from_entry(entry: StoreEntry) -> RunResult:
    """Materialize a stored entry as a :class:`RunResult` (a store hit).

    The rebuilt stats must reproduce the recorded fingerprint — a semantic
    check on top of the CRC, catching payload-schema drift the checksum
    cannot.  ``extras`` gains ``store_hit``/``store_digest`` markers so
    ledgers and reports can tell a cached result from a fresh simulation.
    """
    stats = stats_from_payload(entry.stats)
    if stats.fingerprint() != entry.fingerprint:
        raise StoreCorruptError(
            f"entry {entry.digest[:16]}: rebuilt stats fingerprint "
            f"{stats.fingerprint()} != recorded {entry.fingerprint}"
        )
    cell = CampaignCell.from_spec(entry.spec)
    design_point = entry.spec["design_point"]
    if cell.kind == "single":
        design_point = "SINGLE"
    extras = dict(entry.extras)
    extras["store_hit"] = True
    extras["store_digest"] = entry.digest
    return RunResult(
        benchmark=entry.spec["benchmark"],
        design_point=design_point,
        cycles=entry.cycles,
        stats=stats,
        machine=None,
        trace=None,
        extras=extras,
    )


def publish(
    store: "ResultStore",
    cell: CampaignCell,
    outcome: RunOutcome,
    provenance: Dict[str, object],
    cid: Optional[str] = None,
) -> "tuple[RunOutcome, Optional[StoreEntry]]":
    """Commit one finished attempt: the one step campaigns, ``repro serve``
    and queue workers turn an outcome into a store entry with.  Each then
    decides by :func:`~repro.faults.classify.classify_outcome` on the
    outcome it returns.

    Returns ``(outcome, entry)``.  A failed attempt passes through with no
    entry.  A result is :meth:`ResultStore.put` inside the ``store.publish``
    span and event; when that fails the result is not done: a digest
    already stored with another fingerprint (determinism violated) gives a
    ``FingerprintMismatchError`` :class:`~repro.harness.runner.FailedRun`,
    and a store that cannot be read or written (a full or failing disk) an
    ``OSError`` one, which is transient.
    """
    if not outcome.ok:
        return outcome, None
    try:
        with _span("store.publish", cid=cid, benchmark=cell.benchmark):
            entry, created = store.put(cell, outcome, provenance=provenance)
    except StoreError as exc:
        error_type, error = "FingerprintMismatchError", str(exc)
    except OSError as exc:
        error_type, error = "OSError", f"result not published: {exc}"
    else:
        if _obs.active():
            _obs.emit(
                "store.publish",
                cid=cid,
                digest=entry.digest,
                created=created,
                fingerprint=entry.fingerprint,
                cycles=entry.cycles,
                **provenance,
            )
        return outcome, entry
    failed = FailedRun(
        benchmark=outcome.benchmark,
        design_point=outcome.design_point,
        error_type=error_type,
        error=error,
    )
    return failed, None


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
#
# One entry file = one ASCII header line + the JSON body:
#
#     RPROSTORE 1 <body-bytes> <crc32-of-body-hex>\n
#     {...canonical entry json...}\n
#
# The header is fixed-shape and tiny, so validation (magic, version,
# length, CRC) happens before any JSON parsing touches the body.


def _encode_entry(entry: StoreEntry) -> bytes:
    body = json.dumps(entry.canonical(), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"
    header = (
        f"{STORE_MAGIC} {STORE_FORMAT_VERSION} {len(body)} {zlib.crc32(body):08x}\n"
    ).encode("ascii")
    return header + body


def _decode_entry(data: bytes, source: str = "<bytes>") -> StoreEntry:
    def corrupt(reason: str) -> StoreCorruptError:
        return StoreCorruptError(f"store entry {source}: {reason}")

    newline = data.find(b"\n")
    if newline < 0:
        raise corrupt("no header line (truncated?)")
    try:
        fields = data[:newline].decode("ascii").split(" ")
    except UnicodeDecodeError as exc:
        raise corrupt(f"undecodable header: {exc}") from exc
    if len(fields) != 4:
        raise corrupt(f"malformed header ({len(fields)} fields)")
    magic, version, length, crc = fields
    if magic != STORE_MAGIC:
        raise corrupt(f"bad magic {magic!r}")
    if version != str(STORE_FORMAT_VERSION):
        raise corrupt(
            f"format version {version} unsupported (reader is v{STORE_FORMAT_VERSION})"
        )
    try:
        body_len = int(length)
        expect_crc = int(crc, 16)
    except ValueError as exc:
        raise corrupt(f"malformed header numbers: {exc}") from exc
    body = data[newline + 1 :]
    if len(body) != body_len:
        raise corrupt(f"truncated body ({len(body)} of {body_len} bytes)")
    if zlib.crc32(body) != expect_crc:
        raise corrupt("body CRC mismatch (bit flip or torn write)")
    try:
        doc = json.loads(body)
        entry = StoreEntry.from_canonical(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise corrupt(f"body failed to decode: {exc}") from exc
    return entry


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ResultStore:
    """A content-addressed directory of cell results on a (shared) filesystem.

    Layout::

        <root>/STORE_FORMAT           # format marker, written once
        <root>/objects/<d[:2]>/<digest>.entry
        <root>/objects/<d[:2]>/<digest>.entry.quarantined[.N]

    Concurrency: every write is tmp + fsync + atomic rename, so any number
    of local or remote writers may race on the same digest — all outcomes
    leave one valid entry.  Hit/miss/corruption counters are per-instance
    (process-local observability, not shared state).  One instance is used
    from one thread at a time: its counters and its table of decoded
    entries take no lock.
    """

    def __init__(self, root: str, fs=None) -> None:
        self.root = str(root)
        #: OS facade for every durable path (:mod:`repro.store.io`); the
        #: default is the real filesystem, :mod:`repro.chaos` injects here.
        self.fs = resolve_fs(fs)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.dedupes = 0
        #: digest -> (bytes last decoded, the entry they decoded to), LRU.
        self._decoded: "OrderedDict[str, Tuple[bytes, StoreEntry]]" = OrderedDict()
        self.fs.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
        marker = os.path.join(self.root, "STORE_FORMAT")
        if not self.fs.exists(marker):
            self._write_atomic(
                marker,
                f"{STORE_MAGIC} {STORE_FORMAT_VERSION}\n".encode("ascii"),
            )

    # -- paths ----------------------------------------------------------

    def entry_path(self, digest: str) -> str:
        return os.path.join(self.root, "objects", digest[:2], digest + ".entry")

    def _iter_entry_paths(self) -> Iterator[str]:
        objects = os.path.join(self.root, "objects")
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".entry"):
                    yield os.path.join(shard_dir, name)

    # -- write ----------------------------------------------------------

    def _write_atomic(self, path: str, data: bytes) -> None:
        self.fs.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, data, fs=self.fs)

    def put(
        self,
        cell: CampaignCell,
        result: RunResult,
        provenance: Optional[Dict[str, object]] = None,
    ) -> "tuple[StoreEntry, bool]":
        """Publish one completed cell result; returns ``(entry, created)``.

        Dedupe semantics: when a *valid* entry already exists under the
        digest, the write is skipped and the existing entry returned
        (``created=False``) — a second campaign touching the same cell is
        a store hit, not a re-publication.  A fingerprint conflict between
        the existing entry and the new result raises :class:`StoreError`:
        that is a determinism violation, never something to paper over.
        An existing *corrupt* entry is quarantined and replaced.
        """
        digest = cell_digest(cell)
        existing = self._read_valid(digest)
        if existing is not None:
            if existing.fingerprint != result.fingerprint():
                raise StoreError(
                    f"digest {digest[:16]} already stored with fingerprint "
                    f"{existing.fingerprint} but new result has "
                    f"{result.fingerprint()} — determinism violated"
                )
            self.dedupes += 1
            return existing, False
        prov = {
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "time": time.time(),
            "kernel": cell.kernel,
        }
        prov.update(provenance or {})
        entry = StoreEntry(
            digest=digest,
            spec=cell.spec(),
            fingerprint=result.fingerprint(),
            cycles=result.cycles,
            stats=stats_to_payload(result.stats),
            extras=_jsonable_extras(
                {
                    k: v
                    for k, v in result.extras.items()
                    if k not in ("store_hit", "store_digest")
                }
            ),
            provenance=prov,
        )
        self._write_atomic(self.entry_path(digest), _encode_entry(entry))
        self.writes += 1
        return entry, True

    # -- read -----------------------------------------------------------

    def _read_valid(self, digest: str) -> Optional[StoreEntry]:
        """The digest's entry if present and valid; quarantines corruption.

        The file is read on every call.  Bytes equal to the ones last
        decoded for this digest give back the entry they decoded to; any
        other bytes are checked and parsed afresh.

        A decode failure is re-read once before quarantining: a transient
        short read (flaky NFS, a signal-interrupted read) must not cost a
        perfectly good entry its place in the store.  Only corruption that
        *persists* across the second read is quarantined.
        """
        path = self.entry_path(digest)
        entry = None
        for attempt in (0, 1):
            try:
                data = self.fs.read_bytes(path)
            except FileNotFoundError:
                return None
            kept = self._decoded.get(digest)
            if kept is not None and kept[0] == data:
                self._decoded.move_to_end(digest)
                return kept[1]
            try:
                entry = _decode_entry(data, source=path)
                break
            except StoreCorruptError:
                if attempt == 0:
                    continue
                self.corrupt += 1
                self.quarantine(path)
                return None
        if entry.digest != digest:
            # Content under the wrong address: treat as corruption.
            self.corrupt += 1
            self.quarantine(path)
            return None
        self._decoded[digest] = (data, entry)
        self._decoded.move_to_end(digest)
        if len(self._decoded) > DECODED_ENTRIES:
            self._decoded.popitem(last=False)
        return entry

    def get(self, digest: str) -> Optional[StoreEntry]:
        """Look one digest up; counts a hit or miss; quarantines corruption."""
        entry = self._read_valid(digest)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def contains(self, digest: str) -> bool:
        """Existence probe that counts neither hit nor miss.

        Still validates: a corrupt entry is quarantined and reported absent.
        """
        return self._read_valid(digest) is not None

    def quarantine(self, path: str) -> str:
        """Move a corrupt entry aside for forensics; returns the new path."""
        target = path + QUARANTINE_SUFFIX
        n = 1
        while self.fs.exists(target):
            n += 1
            target = f"{path}{QUARANTINE_SUFFIX}.{n}"
        self.fs.replace(path, target)
        state = _obs.get_state()
        if state is not None:
            # Corruption is the store's highest-signal event: count it and
            # log the evidence path so a fleet operator sees it without
            # grepping worker stderr.
            state.registry.counter(
                "repro_store_quarantines_total",
                "Corrupt entries moved aside for forensics",
            ).inc()
            state.emit("store.quarantine", path=path, evidence=target)
        return target

    # -- maintenance ----------------------------------------------------

    def verify(self) -> Dict[str, object]:
        """Validate every entry; quarantine the corrupt ones.

        Returns ``{"entries", "valid", "corrupt", "quarantined": [paths]}``.
        """
        entries = valid = 0
        quarantined: List[str] = []
        for path in list(self._iter_entry_paths()):
            entries += 1
            try:
                data = self.fs.read_bytes(path)
                entry = _decode_entry(data, source=path)
                if entry.digest != os.path.basename(path)[: -len(".entry")]:
                    raise StoreCorruptError(f"{path}: digest/path mismatch")
                if stats_from_payload(entry.stats).fingerprint() != entry.fingerprint:
                    raise StoreCorruptError(f"{path}: stats/fingerprint mismatch")
            except StoreCorruptError:
                self.corrupt += 1
                quarantined.append(self.quarantine(path))
                continue
            except OSError:
                continue  # raced with another maintenance pass
            valid += 1
        return {
            "entries": entries,
            "valid": valid,
            "corrupt": len(quarantined),
            "quarantined": quarantined,
        }

    def gc(self, quarantine_max_age: Optional[float] = None) -> Dict[str, object]:
        """Collect write droppings; optionally expire quarantine evidence.

        Removes orphaned writer-temporary files (a writer that died between
        open and rename leaves one behind; any live writer's tmp file is
        private to its pid, so removal can only race with that writer's own
        rename — which ``os.replace`` wins).  Quarantined entries are
        *evidence* and kept by default; pass ``quarantine_max_age`` seconds
        to drop the ones older than that.
        """
        removed_tmp: List[str] = []
        removed_quarantine: List[str] = []
        now = time.time()
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if TMP_MARKER in name:
                    try:
                        os.unlink(path)
                        removed_tmp.append(path)
                    except OSError:
                        pass
                elif QUARANTINE_SUFFIX in name and quarantine_max_age is not None:
                    try:
                        if now - os.path.getmtime(path) > quarantine_max_age:
                            os.unlink(path)
                            removed_quarantine.append(path)
                    except OSError:
                        pass
        return {
            "removed_tmp": removed_tmp,
            "removed_quarantined": removed_quarantine,
        }

    def stats(self) -> Dict[str, object]:
        """Store-wide summary plus this instance's traffic counters."""
        entries = 0
        total_bytes = 0
        quarantined = 0
        for dirpath, _dirnames, filenames in os.walk(
            os.path.join(self.root, "objects")
        ):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if name.endswith(".entry"):
                    entries += 1
                    try:
                        total_bytes += os.path.getsize(path)
                    except OSError:
                        pass
                elif QUARANTINE_SUFFIX in name:
                    quarantined += 1
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "dedupes": self.dedupes,
        }
