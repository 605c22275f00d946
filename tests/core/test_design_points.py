"""Tests for the named design points and sensitivity overrides."""

import pytest

from repro.core.design_points import (
    DESIGN_POINTS,
    FIGURE7_ORDER,
    FIGURE12_ORDER,
    get_design_point,
    with_bus_latency,
    with_bus_width,
    with_queue_depth,
    with_transit_delay,
)
from repro.sim.config import baseline_config


class TestRegistry:
    def test_paper_design_points_present(self):
        for name in ("EXISTING", "MEMOPTI", "SYNCOPTI", "HEAVYWT"):
            assert name in DESIGN_POINTS

    def test_section5_variants_present(self):
        for name in ("SYNCOPTI_Q64", "SYNCOPTI_SC", "SYNCOPTI_SC_Q64"):
            assert name in DESIGN_POINTS

    def test_figure_orders_resolve(self):
        for name in FIGURE7_ORDER + FIGURE12_ORDER:
            get_design_point(name)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_design_point("NOPE")

    def test_mechanism_bindings(self):
        assert get_design_point("EXISTING").mechanism == "existing"
        assert get_design_point("MEMOPTI").mechanism == "memopti"
        assert get_design_point("SYNCOPTI").mechanism == "syncopti"
        assert get_design_point("SYNCOPTI_SC").mechanism == "syncopti_sc"
        assert get_design_point("SYNCOPTI_SC_Q64").mechanism == "syncopti_sc"
        assert get_design_point("HEAVYWT").mechanism == "heavywt"


class TestConfiguration:
    def test_q64_config(self):
        cfg = get_design_point("SYNCOPTI_Q64").build_config()
        assert cfg.queues.depth == 64
        assert cfg.queues.qlu == 16

    def test_sc_config(self):
        """The stream cache is the syncopti_sc mechanism's; the machine
        keeps the baseline configuration."""
        point = get_design_point("SYNCOPTI_SC")
        assert point.mechanism == "syncopti_sc"
        assert point.build_config() == baseline_config()

    def test_sc_q64_combines(self):
        point = get_design_point("SYNCOPTI_SC_Q64")
        assert point.mechanism == "syncopti_sc"
        cfg = point.build_config()
        assert cfg.queues.depth == 64
        assert cfg.queues.qlu == 16
        assert cfg == get_design_point("SYNCOPTI_Q64").build_config()

    def test_base_points_keep_baseline(self):
        cfg = get_design_point("EXISTING").build_config()
        base = baseline_config()
        assert cfg.queues.depth == base.queues.depth
        assert cfg.bus.width_bytes == base.bus.width_bytes

    def test_build_config_does_not_mutate_base(self):
        base = baseline_config()
        get_design_point("SYNCOPTI_Q64").build_config(base)
        assert base.queues.depth == 32


class TestOverrides:
    def test_transit_delay(self):
        cfg = with_transit_delay(baseline_config(), 10)
        assert cfg.dedicated.transit_delay == 10

    def test_queue_depth(self):
        cfg = with_queue_depth(baseline_config(), 64)
        assert cfg.queues.depth == 64

    def test_bus_latency(self):
        cfg = with_bus_latency(baseline_config(), 4)
        assert cfg.bus.cycle_latency == 4

    def test_bus_width(self):
        cfg = with_bus_width(baseline_config(), 128)
        assert cfg.bus.width_bytes == 128

    def test_overrides_pure(self):
        base = baseline_config()
        with_bus_latency(base, 4)
        assert base.bus.cycle_latency == 1

    def test_overrides_compose(self):
        cfg = with_bus_width(with_bus_latency(baseline_config(), 4), 128)
        assert cfg.bus.cycle_latency == 4
        assert cfg.bus.width_bytes == 128
