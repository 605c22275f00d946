"""Process-wide obs state and the zero-overhead-when-disabled gate.

Observability follows the ``trace=`` contract (DESIGN.md §7): when no
one called :func:`configure`, every instrumentation site in the hot
path costs exactly one ``is None`` check — no dict building, no string
formatting, no I/O.  Call sites are written as::

    from repro import obs
    ...
    if obs.active():
        obs.emit("store.lookup", cid=cid, digest=digest, result="hit")

``configure()`` wires up a shared :class:`~repro.obs.events.EventLog`
and a :class:`~repro.obs.registry.MetricsRegistry` (the process-wide
default unless overridden); ``shutdown()`` returns the process to the
disabled state and closes the log.

Child processes (the serve executor pool, ``repro store worker``) do
not inherit this state automatically — the parent passes the log path
through explicit arguments (or the ``--obs-log`` flag) and the child
calls :func:`configure` itself, so every process appends to the same
shared-FS log with its own pid.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from typing import Optional

from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "ObsState",
    "configure",
    "shutdown",
    "active",
    "get_state",
    "emit",
    "current_cid",
    "set_cid",
    "reset_cid",
]


@dataclass
class ObsState:
    """Everything an instrumentation site needs, behind one reference."""

    log: Optional[EventLog]
    registry: MetricsRegistry

    def emit(self, event: str, cid: Optional[str] = None, **fields: object) -> None:
        if self.log is not None:
            self.log.emit(event, cid=cid, **fields)


_STATE: Optional[ObsState] = None
_LOCK = threading.Lock()


def configure(
    log_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    fs: Optional[object] = None,
    sync: bool = False,
) -> ObsState:
    """Enable observability for this process.

    ``log_path`` is the shared JSONL event log (``None`` enables
    metrics-only mode: the registry fills but no events are written).
    Reconfiguring with the same path reuses the open log; a different
    path closes the old one first.
    """
    global _STATE
    with _LOCK:
        reg = registry if registry is not None else get_registry()
        if (
            _STATE is not None
            and _STATE.log is not None
            and log_path is not None
            and _STATE.log.path == log_path
            and _STATE.log.sync == bool(sync)
        ):
            log = _STATE.log
        else:
            if _STATE is not None and _STATE.log is not None:
                _STATE.log.close()
            log = EventLog(log_path, fs=fs, sync=sync) if log_path else None
        _STATE = ObsState(log=log, registry=reg)
        return _STATE


def shutdown() -> None:
    """Disable observability and close the event log."""
    global _STATE
    with _LOCK:
        if _STATE is not None and _STATE.log is not None:
            _STATE.log.close()
        _STATE = None


def active() -> bool:
    """True when this process has observability configured.

    This is the gate hot paths check before building any event — when
    it returns ``False`` the site's entire cost was this call.
    """
    return _STATE is not None


def get_state() -> Optional[ObsState]:
    return _STATE


def emit(event: str, cid: Optional[str] = None, **fields: object) -> None:
    """Append one event if obs is active; no-op (and no garbage) otherwise."""
    state = _STATE
    if state is not None:
        state.emit(event, cid=cid, **fields)


# ----------------------------------------------------------------------
# Correlation-ID propagation
# ----------------------------------------------------------------------
#
# The serve path hands the cid to its executor through a ContextVar
# rather than a parameter, so third-party executors (and the test
# doubles) keep the plain ``resolve(cell, digest)`` signature.  asyncio
# tasks copy the ambient context at creation, which is exactly the
# coalescing semantics we want: the task minted for the *first* miss
# carries that query's cid; later coalesced queries only observe it.

_CURRENT_CID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_obs_cid", default=None
)


def current_cid() -> Optional[str]:
    """The correlation ID attached to the current (task) context."""
    return _CURRENT_CID.get()


def set_cid(cid: Optional[str]) -> "contextvars.Token":
    return _CURRENT_CID.set(cid)


def reset_cid(token: "contextvars.Token") -> None:
    _CURRENT_CID.reset(token)
