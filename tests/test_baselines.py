"""Unit tests for the WB and SIB baselines."""

from types import SimpleNamespace

import pytest

from repro.baselines.sib import SibConfig, SibController, SibRound
from repro.baselines.wb import WbBaseline
from repro.cache.write_policy import WritePolicy
from repro.io.request import Request


def attach(scheme, sim, controller, ssd, hdd, interval_us):
    """``scheme`` attached to a stand-in system with the given monitoring
    interval (what the scheme layer reads off a built system)."""
    system = SimpleNamespace(
        sim=sim,
        controller=controller,
        ssd=ssd,
        hdd=hdd,
        tracer=None,
        config=SimpleNamespace(interval_us=interval_us),
    )
    return scheme.attach(system)


class TestWbBaseline:
    def test_noop(self, sim, controller, ssd, hdd):
        wb = attach(WbBaseline(), sim, controller, ssd, hdd, 1000.0)
        wb.start()
        assert wb.tick_interval_us == 0.0
        assert sim.pending_events == 0
        assert controller.policy is WritePolicy.WB


class TestSibConfig:
    def test_defaults_valid(self):
        SibConfig().validate()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SibConfig(scan_overhead_us_per_op=-1).validate()
        with pytest.raises(ValueError):
            SibConfig(max_bypass_per_round=0).validate()
        with pytest.raises(ValueError):
            SibConfig(margin=0.9).validate()


@pytest.fixture
def fast_disk_setup(sim):
    """A system whose disk is fast enough that a loaded SSD queue is the
    Eq. 1 bottleneck (under WT the HDD mirror traffic would otherwise
    dominate — the very pathology the paper attributes to SIB)."""
    from repro.cache.controller import CacheController
    from repro.cache.store import CacheStore
    from repro.devices.base import StorageDevice
    from repro.devices.hdd import HddConfig, HddModel
    from repro.devices.ssd import SsdConfig, SsdModel

    ssd = StorageDevice(
        sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0, write_us=500.0)), depth=1
    )
    hdd = StorageDevice(
        sim,
        "hdd",
        HddModel(
            HddConfig(
                jitter_sigma=0.0,
                avg_seek_us=50.0,
                rotation_us=50.0,
                cached_write_us=50.0,
            )
        ),
        depth=4,
    )
    store = CacheStore(256, associativity=8)
    controller = CacheController(sim, ssd, hdd, store)
    return ssd, hdd, controller


class TestSibController:
    def _build(self, sim, controller, ssd, hdd, **kw):
        defaults = dict(min_cache_qtime_us=0.0, scan_overhead_us_per_op=1.0)
        defaults.update(kw)
        sib = SibController(SibConfig(**defaults))
        # Four rounds per 2,000-µs monitoring interval: one every 500 µs.
        return attach(sib, sim, controller, ssd, hdd, 2000.0)

    def test_start_pins_wt_mode(self, sim, controller, ssd, hdd):
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        assert controller.policy is WritePolicy.WT
        assert controller.behavior.promote_on_miss  # default: promoting WT

    def test_strict_wt_wo_mode(self, sim, controller, ssd, hdd):
        sib = self._build(sim, controller, ssd, hdd, promote_on_miss=False)
        sib.start()
        assert not controller.behavior.promote_on_miss

    def test_bypasses_when_cache_is_bottleneck(self, sim, fast_disk_setup):
        ssd, hdd, controller = fast_disk_setup
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        reqs = [Request(0.0, 100 + i, 1, True) for i in range(40)]
        for r in reqs:
            controller.submit(r)
        sim.run(until=500.0)
        assert sib.decisions, "SIB should have acted on the loaded cache queue"
        assert sib.total_bypassed > 0

    def test_charges_scan_overhead(self, sim, fast_disk_setup):
        ssd, hdd, controller = fast_disk_setup
        sib = self._build(sim, controller, ssd, hdd, scan_overhead_us_per_op=5.0)
        sib.start()
        for i in range(30):
            controller.submit(Request(0.0, 100 + i, 1, True))
        sim.run(until=500.0)
        assert sib.total_overhead_us > 0
        assert sib.decisions[0].overhead_us == pytest.approx(
            5.0 * sib.decisions[0].pending, rel=0.5
        )

    def test_total_overhead_does_not_depend_on_the_interpreter(self, python312_sum):
        sib = SibController()
        sib.decisions = [SibRound(0.0, 0.0, 0.0, 0, 0.1, 0)] * 10
        left_fold = 0.0
        for _ in range(10):
            left_fold += 0.1
        assert python312_sum([0.1] * 10) != left_fold
        assert sib.total_overhead_us == left_fold

    def test_idle_when_disk_is_bottleneck(self, sim, controller, ssd, hdd):
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        # reads all miss in an empty cache → the (slow) disk queue fills,
        # cache stays near-empty: SIB must not act
        for i in range(20):
            controller.submit(Request(0.0, 10_000 + i * 100, 1, False))
        sim.run(until=500.0)
        assert sib.total_bypassed == 0

    def test_wt_mirror_loads_both_queues(self, sim, controller, ssd, hdd):
        """The paper's SIB criticism: under WT, writes fill both queues
        simultaneously, leaving no room to balance."""
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        for i in range(40):
            controller.submit(Request(0.0, 100 + i, 1, True))
        # mirrored: both queues see all the writes
        assert ssd.queue.stats.enqueued >= 40
        assert hdd.queue.stats.enqueued >= 40
        sim.run(until=500.0)
        assert sib.total_bypassed == 0  # disk queue dominates → no room

    def test_start_idempotent(self, sim, controller, ssd, hdd):
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        sib.start()
        assert sim.pending_events == 1

    def test_bypassed_requests_complete(self, sim, fast_disk_setup):
        ssd, hdd, controller = fast_disk_setup
        sib = self._build(sim, controller, ssd, hdd)
        sib.start()
        reqs = [Request(0.0, 100 + i, 1, True) for i in range(40)]
        for r in reqs:
            controller.submit(r)
        # run(until=...) because SIB's periodic tick reschedules forever
        sim.run(until=200_000.0)
        assert all(r.done for r in reqs)
