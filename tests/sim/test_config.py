"""Unit tests for machine configuration (Table 2 defaults and validation)."""

import dataclasses

import pytest

from repro.sim.config import BusConfig, CacheConfig, StreamCacheConfig, baseline_config


class TestTable2Defaults:
    """The defaults must match Table 2 of the paper."""

    def test_issue_width(self, config):
        assert config.core.issue_width == 6

    def test_functional_units(self, config):
        assert config.core.n_ialu == 6
        assert config.core.n_mem_ports == 4
        assert config.core.n_falu == 2
        assert config.core.n_branch == 3

    def test_l1d_geometry(self, config):
        assert config.l1d.size_bytes == 16 * 1024
        assert config.l1d.assoc == 4
        assert config.l1d.line_bytes == 64
        assert config.l1d.latency == 1
        assert not config.l1d.write_back  # write-through

    def test_l2_geometry(self, config):
        assert config.l2.size_bytes == 256 * 1024
        assert config.l2.assoc == 8
        assert config.l2.line_bytes == 128
        assert config.l2.write_back

    def test_l3_geometry(self, config):
        assert config.l3.size_bytes == 1536 * 1024
        assert config.l3.assoc == 12
        assert config.l3.latency > 12  # "> 12 cycles"

    def test_memory_latency(self, config):
        assert config.main_memory_latency == 141

    def test_ozq_depth(self, config):
        assert config.ozq_depth == 16  # max outstanding loads

    def test_bus(self, config):
        assert config.bus.width_bytes == 16
        assert config.bus.cycle_latency == 1
        assert config.bus.stages == 3
        assert config.bus.pipelined

    def test_queues(self, config):
        assert config.queues.n_queues == 64
        assert config.queues.depth == 32
        assert config.queues.qlu == 8
        assert config.queues.item_bytes == 8

    def test_dual_core(self, config):
        assert config.n_cores == 2


class TestValidation:
    def test_baseline_validates(self):
        baseline_config()  # must not raise

    def test_bad_cache_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=3, line_bytes=64, latency=1).validate()

    def test_zero_latency_allowed(self):
        CacheConfig(size_bytes=1024, assoc=1, line_bytes=64, latency=0).validate()

    def test_negative_memory_latency(self, config):
        config.main_memory_latency = -1
        with pytest.raises(ValueError):
            config.validate()

    def test_queue_depth_qlu_mismatch(self, config):
        config.queues.depth = 30
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "field, value", [("qlu", 0), ("qlu", -8), ("item_bytes", 0), ("item_bytes", -8)]
    )
    def test_queue_geometry_must_be_positive(self, config, field, value):
        setattr(config.queues, field, value)
        with pytest.raises(ValueError, match=rf"{field} \({value}\)"):
            config.validate()

    def test_l2_l3_line_sizes_must_match(self, config):
        config.l3 = dataclasses.replace(config.l3, line_bytes=64)
        with pytest.raises(ValueError):
            config.validate()

    def test_bus_width_positive(self):
        with pytest.raises(ValueError):
            BusConfig(width_bytes=0).validate()


class TestCopy:
    def test_copy_is_deep_for_subconfigs(self, config):
        dup = config.copy()
        dup.bus.cycle_latency = 4
        assert config.bus.cycle_latency == 1

    def test_copy_applies_overrides(self, config):
        dup = config.copy(main_memory_latency=99)
        assert dup.main_memory_latency == 99
        assert config.main_memory_latency == 141

    def test_copy_rejects_unknown_field(self, config):
        with pytest.raises(AttributeError):
            config.copy(no_such_field=1)


class TestDerived:
    def test_cache_n_sets(self):
        cc = CacheConfig(size_bytes=256 * 1024, assoc=8, line_bytes=128, latency=7)
        assert cc.n_sets == 256

    def test_bus_transfer_cycles(self):
        bus = BusConfig(width_bytes=16)
        assert bus.transfer_bus_cycles(128) == 8
        assert bus.transfer_bus_cycles(8) == 1
        assert bus.transfer_bus_cycles(17) == 2

    def test_wide_bus_single_beat(self):
        assert BusConfig(width_bytes=128).transfer_bus_cycles(128) == 1

    def test_stream_cache_entries(self):
        assert StreamCacheConfig().n_entries == 128  # 1 KB / 8 B

    def test_describe_mentions_table2_values(self, config):
        desc = config.describe()
        assert "6-issue" in desc["Core"]
        assert "141 cycles" in desc["Main Memory latency"]
        assert "Snoop-based" in desc["Coherence"]
        assert "round robin" in desc["L3 Bus"]
