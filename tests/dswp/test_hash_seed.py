"""DSWP partitions do not depend on Python's string hash seed.

Dependence-graph traversal order decides SCC ids, and with them the
partitioner's first-found tie-breaks.  Adjacency kept in hash-ordered sets
made mcf's two-stage partition (and several K-stage ones) change with
``PYTHONHASHSEED``; it must follow insertion order instead.  Each seed needs
a fresh interpreter, so the partitions are built in subprocesses.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PROBE = """
import json
from repro.dswp.partition import partition_loop_k, plan_queue_hops
from repro.workloads.suite import BENCHMARKS, build_loop, build_partition

def record(p):
    return [p.stage_of, [[value, src, qid] for (value, src), qid in plan_queue_hops(p).items()]]

out = {}
for name, info in BENCHMARKS.items():
    if info.partition_mode != "nested":
        out[name] = record(build_partition(name, 64))
out["mcf/k3"] = record(partition_loop_k(build_loop("mcf", 64), 3))
print(json.dumps(out, sort_keys=True))
"""


def _partitions(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_partitions_identical_under_different_hash_seeds():
    seed0, seed1 = _partitions(0), _partitions(1)
    assert "mcf" in seed0 and "mcf/k3" in seed0
    for key in seed0:
        assert seed1[key] == seed0[key], key
