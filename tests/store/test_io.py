"""Tests for ``repro.store.io`` — the shared durable-write helper.

This module is the single funnel for every durable write in the store,
the work queue, the campaign ledger, and the checkpoint writer, plus the
seam the chaos harness injects through — so its contracts (atomicity,
private tmp naming, facade late binding) get pinned here.
"""

import errno
import os
import threading
from pathlib import Path

import pytest

from repro.chaos import ChaosFS, ChaosPlan, FaultRule
from repro.store.io import (
    REAL_FS,
    TMP_MARKER,
    RealFS,
    fsync_dir,
    read_bytes,
    resolve_fs,
    write_atomic,
)


class TestWriteAtomic:
    def test_installs_content_and_removes_tmp(self, tmp_path):
        path = str(tmp_path / "f")
        write_atomic(path, b"hello")
        assert Path(path).read_bytes() == b"hello"
        assert [p for p in os.listdir(tmp_path) if TMP_MARKER in p] == []

    def test_overwrites_existing(self, tmp_path):
        path = str(tmp_path / "f")
        write_atomic(path, b"old")
        write_atomic(path, b"new")
        assert Path(path).read_bytes() == b"new"

    def test_tmp_name_is_writer_private(self, tmp_path):
        # pid + thread id in the tmp name: two threads racing on one
        # target never stomp each other's in-progress bytes.
        path = str(tmp_path / "f")
        names = {}
        # Both writers are inside open() at once, so they are both alive and
        # their thread ids differ (a finished thread's id can be reused).
        both_open = threading.Barrier(2, timeout=10)

        class Spy(RealFS):
            @staticmethod
            def open(p, flags, mode=0o777):
                names[threading.get_ident()] = p
                both_open.wait()
                return os.open(p, flags, mode)

        def writer():
            write_atomic(path, b"x" * 64, fs=Spy())

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(names.values())) == 2
        for tid, tmp in names.items():
            assert f"{TMP_MARKER}{os.getpid()}.{tid}" in tmp
        assert Path(path).read_bytes() == b"x" * 64

    def test_failed_replace_leaves_target_untouched(self, tmp_path):
        path = str(tmp_path / "f")
        write_atomic(path, b"old")
        chaos = ChaosFS(
            ChaosPlan(rules=[FaultRule(op="replace", error=errno.EIO)])
        )
        with pytest.raises(OSError):
            write_atomic(path, b"new", fs=chaos)
        assert Path(path).read_bytes() == b"old"

    def test_dir_sync_flag_controls_parent_fsync(self, tmp_path):
        chaos = ChaosFS(ChaosPlan())
        write_atomic(str(tmp_path / "a"), b"x", fs=chaos, dir_sync=True)
        synced_ops = [s.op for s in chaos.mutation_sites()]
        assert synced_ops[-1] == "fsync_dir"

        chaos = ChaosFS(ChaosPlan())
        write_atomic(str(tmp_path / "b"), b"x", fs=chaos, dir_sync=False)
        assert "fsync_dir" not in [s.op for s in chaos.mutation_sites()]


class TestRealFS:
    def test_resolve_fs_defaults_to_real(self):
        assert resolve_fs(None) is REAL_FS
        sentinel = object()
        assert resolve_fs(sentinel) is sentinel

    def test_methods_bind_os_at_call_time(self, tmp_path, monkeypatch):
        # Dead-disk tests monkeypatch os.write; the facade must see the
        # patch, not a function object captured at import time.
        calls = []
        real_write = os.write

        def spy(fd, data):
            calls.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy)
        write_atomic(str(tmp_path / "f"), b"hello")
        assert calls == [5]

    def test_read_bytes_and_fsync_dir(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"payload")
        assert read_bytes(str(path)) == b"payload"
        fsync_dir(str(tmp_path))  # no facade: must not raise
        fsync_dir(str(tmp_path / "no-such-dir"))  # tolerated

    def test_clock_is_wall_time(self):
        import time

        assert abs(REAL_FS.clock() - time.time()) < 5.0
