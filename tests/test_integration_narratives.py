"""End-to-end narrative tests: each paper mechanism on a tiny system.

These tests build micro-systems (small caches, short runs) where the
expected physics is computable by hand, and assert the *mechanism*, not
tuned magnitudes.
"""

import pytest

from repro.cache.controller import CacheController
from repro.cache.store import CacheStore
from repro.cache.write_policy import WritePolicy
from repro.config import quick_config
from repro.core.bottleneck import tail_past_threshold
from repro.devices.base import StorageDevice
from repro.devices.hdd import HddConfig, HddModel
from repro.devices.ssd import SsdConfig, SsdModel
from repro.experiments.system import ExperimentSystem
from repro.io.request import Request
from repro.sim.engine import Simulator
from repro.workloads.synthetic import (
    mixed_read_write_workload,
    random_read_workload,
    random_write_workload,
    sequential_read_workload,
)


def micro_system(policy=WritePolicy.WB):
    sim = Simulator()
    ssd = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)), depth=1)
    hdd = StorageDevice(sim, "hdd", HddModel(HddConfig(jitter_sigma=0.0)), depth=1)
    store = CacheStore(64, associativity=8)
    controller = CacheController(sim, ssd, hdd, store, policy=policy)
    return sim, ssd, hdd, store, controller


class TestWoStopsPromotionLoad:
    """Group 1 remedy: WO removes promotion writes from the SSD."""

    def test_promotion_traffic_difference(self):
        for policy, promotes in ((WritePolicy.WB, True), (WritePolicy.WO, False)):
            sim, ssd, hdd, store, controller = micro_system(policy)
            for i in range(20):
                controller.submit(Request(sim.now, 1000 + i * 10, 1, False))
            sim.run()
            ssd_writes = ssd.stats.writes
            if promotes:
                assert ssd_writes == 20  # every miss promoted
            else:
                assert ssd_writes == 0


class TestRoShedsWriteLoad:
    """Group 2 remedy: RO sends writes to the disk's write cache."""

    def test_ssd_write_traffic_eliminated(self):
        sim, ssd, hdd, store, controller = micro_system(WritePolicy.RO)
        for i in range(20):
            controller.submit(Request(sim.now, i * 50, 1, True))
        sim.run()
        assert ssd.stats.writes == 0
        assert hdd.stats.blocks_written == 20

    def test_disk_write_cache_makes_bypass_cheap(self):
        """A bypassed write (disk cache ~400µs) beats waiting behind a
        loaded SSD queue (N × write cost)."""
        sim, ssd, hdd, store, controller = micro_system(WritePolicy.WB)
        reqs = [Request(0.0, i * 50, 1, True) for i in range(30)]
        for r in reqs:
            controller.submit(r)
        sim.run()
        wb_mean = sum(r.latency for r in reqs) / len(reqs)

        sim2, ssd2, hdd2, store2, controller2 = micro_system(WritePolicy.RO)
        reqs2 = [Request(0.0, i * 50, 1, True) for i in range(30)]
        for r in reqs2:
            controller2.submit(r)
        sim2.run()
        ro_mean = sum(r.latency for r in reqs2) / len(reqs2)
        assert ro_mean < wb_mean


class TestTailBypassKeepsHead:
    """Group 3 remedy: the queue head keeps cache service."""

    def test_head_requests_not_bypassed(self):
        sim, ssd, hdd, store, controller = micro_system(WritePolicy.WB)
        reqs = [Request(0.0, 100 + i * 50, 1, True) for i in range(20)]
        for r in reqs:
            controller.submit(r)
        past = tail_past_threshold(
            len(ssd.queue.pending), hdd.queue_time(), ssd.avg_latency
        )
        controller.bypass_tail(min(past, 8))
        sim.run()
        head = reqs[:2]
        tail = reqs[-2:]
        assert not any(r.bypassed for r in head)
        assert any(r.bypassed for r in reqs)
        # bypassed requests were still served correctly
        assert all(r.done for r in reqs)


class TestBypassConservation:
    """Every op the SSD queue counts as stolen is one a scheme logged."""

    @pytest.mark.parametrize("scheme", ["lbica", "sib"])
    @pytest.mark.parametrize("workload", ["mail", "web"])
    def test_logged_bypasses_equal_stolen_ops(self, workload, scheme):
        result = ExperimentSystem.build(workload, scheme, quick_config(7)).run()
        bypassed = sum(d.bypassed for d in result.scheme_decisions)
        assert bypassed > 0
        assert bypassed == result.ssd_queue_stats["stolen"]


class TestSyntheticGroupDetection:
    """Each synthetic workload must be classified into its paper group."""

    def _detected_groups(self, workload):
        cfg = quick_config()
        system = ExperimentSystem(workload, "lbica", cfg)
        result = system.run()
        return {
            d.group.value
            for d in result.scheme_decisions
            if d.burst and d.group is not None
        }

    def test_random_read_detects_group1(self):
        wl = random_read_workload(15_000.0, n_intervals=40)
        groups = self._detected_groups(wl)
        assert "group1_random_read" in groups

    def test_mixed_rw_detects_group2(self):
        wl = mixed_read_write_workload(15_000.0, n_intervals=40)
        groups = self._detected_groups(wl)
        assert "group2_mixed_rw" in groups

    def test_random_write_detects_group3(self):
        wl = random_write_workload(15_000.0, n_intervals=40)
        groups = self._detected_groups(wl)
        assert groups & {"group3_random_write", "group3_sequential_write"}

    def test_sequential_read_never_bottlenecks_disk_side(self):
        """Group 4: the scan is served by the disk as a sequential streak;
        whatever bursts appear must not push LBICA off WB for long."""
        wl = sequential_read_workload(15_000.0, n_intervals=30)
        cfg = quick_config()
        system = ExperimentSystem(wl, "lbica", cfg)
        result = system.run()
        assert result.completed > 0
        # sequential reads stream from the disk cheaply
        assert result.mean_latency < 50_000.0


class TestLbicaEndToEndRelief:
    """After LBICA acts, the cache queue must actually deflate."""

    def test_cache_queue_deflates_after_assignment(self):
        cfg = quick_config()
        result = ExperimentSystem.build("tpcc", "lbica", cfg).run()
        assignments = [
            d.interval_index
            for d in result.scheme_decisions
            if d.policy_assigned is not None
        ]
        assert assignments
        t = assignments[0]
        series = result.cache_load_series()
        before = max(series[max(t - 3, 0) : t + 1])
        after_window = series[t + 5 : t + 15]
        assert after_window
        assert max(after_window) < before
