"""Unit tests for the chaos shim itself (``repro.chaos.fs``).

The shim is test infrastructure, which is exactly why it gets its own
tests: a fault injector that lies about its faults proves nothing about
the code under it.  Covered here: rule-based and probabilistic error
injection, seed determinism, enumerated crash points (plain and torn),
the two loss models (kill vs power), clock skew, and short reads.
"""

import errno
import os
import time
from pathlib import Path

import pytest

from repro.chaos import ChaosFS, ChaosPlan, FaultRule, SimulatedCrash
from repro.store.io import write_atomic


def _write_file(chaos: ChaosFS, path: str, data: bytes) -> None:
    """open/write/fsync/close through the facade (no rename)."""
    fd = chaos.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        chaos.write(fd, data)
        chaos.fsync(fd)
    finally:
        chaos.close(fd)


class TestFaultRules:
    def test_rule_fires_as_a_burst(self, tmp_path):
        chaos = ChaosFS(
            ChaosPlan(
                rules=[
                    FaultRule(op="write", error=errno.ENOSPC, after=1, count=2)
                ]
            )
        )
        path = str(tmp_path / "f")
        fd = chaos.open(path, os.O_WRONLY | os.O_CREAT)
        outcomes = []
        for _ in range(4):
            try:
                chaos.write(fd, b"x")
                outcomes.append("ok")
            except OSError as exc:
                outcomes.append(exc.errno)
        chaos.close(fd)
        assert outcomes == ["ok", errno.ENOSPC, errno.ENOSPC, "ok"]

    def test_rule_matches_path_substring(self, tmp_path):
        chaos = ChaosFS(
            ChaosPlan(rules=[FaultRule(op="unlink", path_substr=".lease")])
        )
        victim = tmp_path / "w.lease"
        bystander = tmp_path / "w.entry"
        victim.write_bytes(b"")
        bystander.write_bytes(b"")
        chaos.unlink(str(bystander))  # no match: passes through
        with pytest.raises(OSError):
            chaos.unlink(str(victim))

    def test_probabilistic_errors_are_seed_deterministic(self, tmp_path):
        def schedule(seed):
            chaos = ChaosFS(ChaosPlan(seed=seed, p_io_error=0.3))
            path = str(tmp_path / f"s{seed}")
            out = []
            for i in range(30):
                try:
                    _write_file(chaos, path, b"payload")
                    out.append("ok")
                except OSError:
                    out.append("err")
            return out, dict(chaos.injected)

        first = schedule(7)
        tmp_path.joinpath("s7").unlink(missing_ok=True)
        second = schedule(7)
        assert first == second
        assert first != schedule(8)


class TestCrashPoints:
    def test_crash_at_counts_mutating_calls(self, tmp_path):
        chaos = ChaosFS(ChaosPlan(crash_at=2))
        with pytest.raises(SimulatedCrash) as exc_info:
            write_atomic(str(tmp_path / "f"), b"hello", fs=chaos)
        # write_atomic's mutation order: open(0), write(1), fsync(2).
        assert exc_info.value.index == 2
        assert exc_info.value.op == "fsync"
        chaos.close_leaked()

    def test_simulated_crash_is_not_an_exception(self):
        # Production retry loops catch Exception; a simulated SIGKILL must
        # sail through them the way a real one would.
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)

    def test_torn_crash_persists_a_strict_prefix(self, tmp_path):
        data = b"0123456789abcdef"
        chaos = ChaosFS(ChaosPlan(crash_at=1, crash_torn=True))
        path = str(tmp_path / "f")
        with pytest.raises(SimulatedCrash) as exc_info:
            write_atomic(path, data, fs=chaos)
        assert exc_info.value.torn
        chaos.close_leaked()
        # The tear lands on the writer-private tmp file, pre-rename.
        (torn,) = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        content = (tmp_path / torn).read_bytes()
        assert len(content) < len(data)
        assert data.startswith(content)

    def test_close_leaked_reclaims_descriptors(self, tmp_path):
        # A crash between open and close (no finally in the victim code)
        # abandons the descriptor; close_leaked reclaims it.
        chaos = ChaosFS(ChaosPlan())
        fd = chaos.open(str(tmp_path / "f"), os.O_WRONLY | os.O_CREAT)
        assert chaos._fd_path
        chaos.close_leaked()
        assert not chaos._fd_path
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_mutation_sites_enumerates_only_mutations(self, tmp_path):
        chaos = ChaosFS(ChaosPlan())
        path = str(tmp_path / "f")
        write_atomic(path, b"x", fs=chaos)
        chaos.read_bytes(path)  # non-mutating: not a crash point
        sites = chaos.mutation_sites()
        assert [s.op for s in sites] == [
            "open", "write", "fsync", "close", "replace", "fsync_dir",
        ]
        assert [s.index for s in sites] == list(range(6))


class TestPowerLossModel:
    def test_synced_write_atomic_survives(self, tmp_path):
        path = str(tmp_path / "f")
        chaos = ChaosFS(ChaosPlan())
        write_atomic(path, b"hello", fs=chaos, dir_sync=True)
        chaos.apply_crash_loss()
        assert Path(path).read_bytes() == b"hello"

    def test_unsynced_rename_reverts(self, tmp_path):
        path = str(tmp_path / "f")
        chaos = ChaosFS(ChaosPlan())
        write_atomic(path, b"hello", fs=chaos, dir_sync=False)
        chaos.apply_crash_loss()
        assert not os.path.exists(path)

    def test_lost_fsync_rolls_content_back(self, tmp_path):
        path = str(tmp_path / "f")
        stable = ChaosFS(ChaosPlan())
        _write_file(stable, path, b"old")
        # Every fsync from here on lies.
        chaos = ChaosFS(ChaosPlan(p_lost_fsync=1.0))
        _write_file(chaos, path, b"new")
        assert Path(path).read_bytes() == b"new"  # the process's view
        chaos.apply_crash_loss()
        assert Path(path).read_bytes() == b"old"  # the platter's view

    def test_dropped_rename_is_permanently_volatile(self, tmp_path):
        path = str(tmp_path / "f")
        chaos = ChaosFS(ChaosPlan(p_dropped_rename=1.0))
        # Even with dir_sync=True: the drop models a firmware-grade lie
        # that no directory fsync can commit.
        write_atomic(path, b"hello", fs=chaos, dir_sync=True)
        assert os.path.exists(path)
        chaos.apply_crash_loss()
        assert not os.path.exists(path)
        assert chaos.injected.get("dropped_rename") == 1

    def test_kill_model_loses_nothing_completed(self, tmp_path):
        # A process kill (no apply_crash_loss) keeps every applied call.
        path = str(tmp_path / "f")
        chaos = ChaosFS(ChaosPlan(p_lost_fsync=1.0))
        write_atomic(path, b"hello", fs=chaos, dir_sync=False)
        assert Path(path).read_bytes() == b"hello"


class TestReadAndClock:
    def test_short_read_returns_strict_prefix(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"0123456789")
        chaos = ChaosFS(ChaosPlan(p_short_read=1.0))
        data = chaos.read_bytes(str(path))
        assert len(data) < 10
        assert b"0123456789".startswith(data)
        # The file itself is untouched: the glitch is in the read.
        assert path.read_bytes() == b"0123456789"

    def test_clock_skew(self):
        chaos = ChaosFS(ChaosPlan(clock_skew=3600.0))
        assert abs(chaos.clock() - time.time() - 3600.0) < 5.0
