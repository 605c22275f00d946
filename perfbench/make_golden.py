"""Regenerate ``golden.json``: the fingerprint and cycles of every cell.

Run from the repository root::

    python3 perfbench/make_golden.py

Only a change to the simulated model should need this; a host-speed change
must leave every entry identical.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cells import GOLDEN_PATH, all_golden_cells, label  # noqa: E402
from repro.harness.campaign import execute_cell  # noqa: E402
from run import pin_hash_seed  # noqa: E402


def main() -> int:
    pin_hash_seed(os.path.abspath(__file__))
    table = {}
    for cell in all_golden_cells():
        outcome = execute_cell(cell)
        if not outcome.ok:
            print(f"{label(cell)}: {outcome.error_type}: {outcome.error}", file=sys.stderr)
            return 1
        table[label(cell)] = {"fingerprint": outcome.fingerprint(), "cycles": outcome.cycles}
    doc = {
        "about": "RunStats fingerprint and cycles per benchmark/point/trips; any kernel",
        "cells": dict(sorted(table.items())),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} cells to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
