"""Run ``repro serve`` with call timers on the result store and fsync.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py COUNTS.json serve --store DIR ...

Everything after ``COUNTS.json`` is passed to ``python -m repro``.  When the
server stops, the call counts and inclusive seconds of ``ResultStore.get``,
``ResultStore.put`` and ``RealFS.fsync``/``fsync_dir`` in the server process
are written to ``COUNTS.json``.  Store publishes run on the server's event
loop, so these are the serve-side store and fsync costs.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    from repro.__main__ import main as repro_main

    counts_path = sys.argv[1]
    tracer = Tracer().install_store()
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump({"counts": tracer.counts, "call_s": tracer.call_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
