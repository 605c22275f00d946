"""The forkserver that ``repro serve``'s local pool starts its workers from.

Workers fork from a forkserver, never from the server itself, so they
inherit none of the server's client sockets.  ``python -m repro serve``
forks that forkserver from itself (:func:`start`) once it has imported the
server, which imports everything a worker runs, and before it opens a
socket.  The forkserver and every worker therefore start with the
simulator already loaded, sharing the server's pages, and the first miss
waits for neither a second interpreter nor a compile.

Where :func:`start` is not used, or cannot fork, the pool starts the
stdlib's forkserver with its first worker: a fresh interpreter that
imports :data:`PRELOAD` before it forks a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
from multiprocessing import connection, util
from multiprocessing import forkserver as _forkserver

#: What a fresh forkserver imports before its first fork: the module a pool
#: worker runs (not the command line that started the server).
PRELOAD = ("repro.harness.pool",)

#: The state :mod:`multiprocessing.forkserver` keeps for its forkserver in
#: CPython 3.7 to 3.13.  A Python that keeps other state gets its own start.
_FORKSERVER_STATE = frozenset(
    {
        "_forkserver_address",
        "_forkserver_alive_fd",
        "_forkserver_pid",
        "_inherited_fds",
        "_lock",
        "_preload_modules",
    }
)


def context() -> multiprocessing.context.BaseContext:
    """The ``forkserver`` start method, preloading :data:`PRELOAD`.

    The preload list is the process's one forkserver setting; it applies
    when the stdlib starts the forkserver.
    """
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(list(PRELOAD))
    return ctx


def start() -> None:
    """Fork the forkserver from this process, as it is now.

    Call it once the modules a worker needs are imported and before this
    process opens anything a worker must not inherit: the forkserver is a
    copy of this process, and every worker a copy of the forkserver.  It is
    registered with :mod:`multiprocessing.forkserver` as the stdlib would
    register its own, so the pool connects to it like any forkserver, and
    if it dies the stdlib starts a fresh one.  It exits when this process
    does.

    Does nothing if a forkserver is already running, if another thread is
    running (a fork copies only this one), or if this Python keeps
    forkserver state other than :data:`_FORKSERVER_STATE`; the pool then
    starts the forkserver with its first worker.
    """
    server = _forkserver._forkserver
    if (
        threading.active_count() > 1
        or set(vars(server)) != _FORKSERVER_STATE
        or server._forkserver_pid is not None
    ):
        return
    # `server._lock` is not taken: with one thread nothing races this, and a
    # lock held across the fork would stay held in the forkserver and in
    # every worker.  Workers flush the stdio buffers they inherit on exit.
    sys.stdout.flush()
    sys.stderr.flush()
    with socket.socket(socket.AF_UNIX) as listener:
        address = connection.arbitrary_address("AF_UNIX")
        listener.bind(address)
        if not util.is_abstract_socket_namespace(address):
            os.chmod(address, 0o600)
        listener.listen()
        # This process holds the write end; EOF tells the forkserver that
        # its clients are gone.
        alive_r, alive_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(alive_w)
                _forkserver.main(listener.fileno(), alive_r, [])
            except SystemExit:  # how main returns once alive_r is at EOF
                code = 0
            finally:
                os._exit(code)
        os.close(alive_r)
    server._forkserver_address = address
    server._forkserver_alive_fd = alive_w
    server._forkserver_pid = pid
