"""Unit tests for the system configuration presets."""

from dataclasses import replace

import pytest

from repro.cache.writeback import WritebackConfig
from repro.config import SystemConfig, paper_config, quick_config
from repro.experiments.system import ExperimentSystem
from repro.obs.config import ObsConfig
from repro.schemes.configs import (
    DynShareConfig,
    LbicaConfig,
    PartitionConfig,
    SibConfig,
    SloStealConfig,
)

#: Every float field of the run-parameter configs (the device models'
#: are checked in tests/test_devices.py).
FLOAT_FIELDS = [
    (SystemConfig, "interval_us"),
    (SystemConfig, "rate_scale"),
    (WritebackConfig, "interval_us"),
    (WritebackConfig, "low_watermark"),
    (WritebackConfig, "high_watermark"),
    (LbicaConfig, "margin"),
    (LbicaConfig, "min_cache_qtime_us"),
    (SibConfig, "scan_overhead_us_per_op"),
    (SibConfig, "margin"),
    (SibConfig, "min_cache_qtime_us"),
    (DynShareConfig, "ewma"),
    (SloStealConfig, "donor_headroom"),
    (ObsConfig, "heartbeat_s"),
]


def tick_periods(config: SystemConfig) -> dict[str, float]:
    """The control-loop period of each built-in scheme, built on ``config``."""
    return {
        name: ExperimentSystem.build("tpcc", name, config).balancer.tick_interval_us
        for name in ("wb", "sib", "lbica", "partition", "dynshare", "slosteal")
    }


class TestSystemConfig:
    def test_paper_preset_valid(self):
        paper_config().validate()

    def test_quick_preset_valid_and_faster(self):
        quick = quick_config()
        quick.validate()
        assert quick.interval_us < paper_config().interval_us

    def test_control_loops_align_to_interval(self):
        periods = tick_periods(SystemConfig(interval_us=40_000.0))
        assert periods.pop("wb") == 0.0
        assert periods.pop("sib") == 10_000.0
        assert set(periods.values()) == {40_000.0}

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(interval_us=-1).validate()
        with pytest.raises(ValueError):
            SystemConfig(cache_blocks=0).validate()
        with pytest.raises(ValueError):
            SystemConfig(rate_scale=0).validate()
        with pytest.raises(ValueError):
            SystemConfig(drain_intervals=-1).validate()

    @pytest.mark.parametrize(
        "cls,name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_field_rejected(self, cls, name, value):
        with pytest.raises(ValueError, match=name):
            cls(**{name: value}).validate()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_partition_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            PartitionConfig(variant="proportional", weights=[1.0, weight]).validate()

    def test_scaled_copies(self):
        cfg = paper_config()
        half = cfg.scaled(0.5)
        assert half.rate_scale == 0.5
        assert cfg.rate_scale == 1.0  # original untouched

    def test_seed_propagates(self):
        assert paper_config(seed=99).seed == 99

    def test_config_instances_do_not_share_device_configs(self):
        a = paper_config()
        b = paper_config()
        a.ssd.read_us = 1.0
        assert b.ssd.read_us != 1.0

    def test_replace_keeps_alignment(self):
        periods = tick_periods(replace(paper_config(), interval_us=20_000.0))
        assert periods.pop("wb") == 0.0
        assert periods.pop("sib") == 5_000.0
        assert set(periods.values()) == {20_000.0}
