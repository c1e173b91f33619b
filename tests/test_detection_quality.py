"""Tests for the detection-quality metric and end-to-end detector scoring."""

import pytest

from repro.analysis.metrics import DetectionQuality, detection_quality
from repro.config import quick_config
from repro.experiments.system import ExperimentSystem
from repro.workloads.bootstorm import boot_storm_workload


class TestDetectionQualityMetric:
    def test_perfect_detection(self):
        q = detection_quality(detected=[5, 6, 7], scripted=[5, 6, 7, 8])
        assert q.precision == 1.0
        assert q.recall == 1.0

    def test_lagged_detection_within_slack(self):
        q = detection_quality(detected=[12], scripted=[5, 6, 7, 8], slack=10)
        assert q.precision == 1.0
        assert q.recall == 1.0

    def test_false_positive_counted(self):
        q = detection_quality(detected=[50], scripted=[5, 6, 7], slack=2)
        assert q.false_positives == 1
        assert q.precision == 0.0
        assert q.recall == 0.0

    def test_multiple_windows(self):
        scripted = [3, 4, 5, 20, 21, 22]  # two windows
        q = detection_quality(detected=[4, 100], scripted=scripted, slack=0)
        assert q.scripted_windows == 2
        assert q.detected_windows == 1
        assert q.recall == pytest.approx(0.5)

    def test_no_scripted_windows_means_trivial_recall(self):
        q = detection_quality(detected=[], scripted=[])
        assert q.recall == 1.0
        assert q.precision == 1.0

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            detection_quality([], [], slack=-1)

    def test_dataclass_fields(self):
        q = DetectionQuality(3, 1, 1, 1)
        assert q.precision == pytest.approx(0.75)


class TestEndToEndDetection:
    @pytest.mark.parametrize("workload_name", ["tpcc", "mail", "web"])
    def test_lbica_detects_every_scripted_burst(self, workload_name):
        cfg = quick_config()
        system = ExperimentSystem.build(workload_name, "lbica", cfg)
        scripted = system.workload.burst_intervals()
        result = system.run()
        detected = [d.interval_index for d in result.scheme_decisions if d.burst]
        q = detection_quality(detected, scripted, slack=30)
        assert q.recall == 1.0, (workload_name, detected, q)
        assert q.precision > 0.6, (workload_name, detected)


class TestBootStorm:
    def test_factory_validates(self):
        with pytest.raises(ValueError):
            boot_storm_workload(1000.0, n_vms=0)

    def test_storm_rate_scales_with_vms_and_caps(self):
        small = boot_storm_workload(1000.0, n_vms=4)
        big = boot_storm_workload(1000.0, n_vms=64)
        huge = boot_storm_workload(1000.0, n_vms=10_000)
        assert small.phases[0].rate_iops < big.phases[0].rate_iops
        assert huge.phases[0].rate_iops == 9000.0

    def test_lbica_assigns_wo_to_boot_storm(self):
        cfg = quick_config()
        workload = boot_storm_workload(cfg.interval_us, cache_blocks=cfg.cache_blocks)
        result = ExperimentSystem(workload, "lbica", cfg).run()
        assigned = [p.policy.value for p in result.policy_log[1:]]
        assert "WO" in assigned, result.policy_log

    def test_lbica_beats_wb_on_boot_storm(self):
        cfg = quick_config()

        def run(scheme):
            workload = boot_storm_workload(
                cfg.interval_us, cache_blocks=cfg.cache_blocks
            )
            return ExperimentSystem(workload, scheme, cfg).run()

        assert run("lbica").mean_latency < run("wb").mean_latency
