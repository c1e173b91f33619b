"""Unit tests for LBICA's three procedures and the controller loop."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.baselines.sib import SibConfig
from repro.cache.write_policy import WritePolicy
from repro.core.bottleneck import cache_is_bottleneck, tail_past_threshold
from repro.core.characterization import (
    CharacterizerConfig,
    QueueMix,
    WorkloadCharacterizer,
    WorkloadGroup,
)
from repro.core.lbica import LbicaConfig, LbicaController
from repro.core.policy_table import default_policy_table
from repro.io.request import OpTag, Request
from repro.trace.blktrace import BlkTracer


def counts(r=0, w=0, p=0, e=0) -> Counter:
    return Counter(
        {OpTag.READ: r, OpTag.WRITE: w, OpTag.PROMOTE: p, OpTag.EVICT: e}
    )


class TestBottleneckDetector:
    def test_cache_bottleneck_when_cache_qtime_larger(self):
        assert cache_is_bottleneck(1000.0, 500.0, 1.0, 0.0)
        assert not cache_is_bottleneck(500.0, 1000.0, 1.0, 0.0)

    def test_floor_suppresses_noise(self):
        assert not cache_is_bottleneck(1000.0, 0.0, 1.0, 2000.0)
        assert cache_is_bottleneck(3000.0, 0.0, 1.0, 2000.0)

    def test_margin(self):
        assert not cache_is_bottleneck(1500.0, 1000.0, 2.0, 0.0)
        assert cache_is_bottleneck(2500.0, 1000.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "cache_qtime,disk_qtime,margin,floor,expected",
        [
            (1000.0, 1000.0, 1.0, 0.0, False),  # Eq. 1 is strict
            (2000.0, 1000.0, 2.0, 0.0, False),  # so is the margin
            (2000.0001, 1000.0, 2.0, 0.0, True),
            (2000.0, 0.0, 1.0, 2000.0, True),  # the floor is inclusive
            (1999.0, 0.0, 1.0, 2000.0, False),
            (0.0, 0.0, 1.0, 0.0, False),  # an idle system is no burst
        ],
    )
    def test_eq1_boundaries(self, cache_qtime, disk_qtime, margin, floor, expected):
        assert cache_is_bottleneck(cache_qtime, disk_qtime, margin, floor) is expected

    def test_invalid_params(self):
        # Both configs feed cache_is_bottleneck, so both reject the same
        # margin and floor with the same messages.
        for config_cls in (LbicaConfig, SibConfig):
            with pytest.raises(ValueError, match="margin must be >= 1.0"):
                config_cls(margin=0.5).validate()
            with pytest.raises(
                ValueError, match="min_cache_qtime_us must be non-negative"
            ):
                config_cls(min_cache_qtime_us=-1).validate()


class TestCharacterizer:
    """Includes the paper's four measured mixes (Section IV-C)."""

    def setup_method(self):
        self.clf = WorkloadCharacterizer()

    def test_paper_tpcc_interval3_is_random_read(self):
        # R: 44%, W: 2.2%, P: 51%, E: 2.8% → Group 1 → WO
        mix = QueueMix(r=0.44, w=0.022, p=0.51, e=0.028, total=1000)
        assert self.clf.classify(mix) is WorkloadGroup.RANDOM_READ

    def test_paper_mail_interval23_is_mixed_rw(self):
        # R: 13.9%, W: 70.4%, P: 3.9%, E: 11.8% → Group 2 → RO
        mix = QueueMix(r=0.139, w=0.704, p=0.039, e=0.118, total=1000)
        assert self.clf.classify(mix) is WorkloadGroup.MIXED_RW

    def test_paper_mail_interval134_is_write_intensive(self):
        # ~90% W and E → Group 3 → WB
        mix = QueueMix(r=0.05, w=0.60, p=0.05, e=0.30, total=1000)
        group = self.clf.classify(mix)
        assert group.is_write_intensive

    def test_paper_web_interval1_is_mixed_rw(self):
        # R: 17.9%, W: 63.8%, P: 7.9%, E: 10.4% → Group 2 → RO
        mix = QueueMix(r=0.179, w=0.638, p=0.079, e=0.104, total=1000)
        assert self.clf.classify(mix) is WorkloadGroup.MIXED_RW

    def test_sequential_read_p_dominant(self):
        mix = QueueMix(r=0.1, w=0.05, p=0.8, e=0.05, total=1000)
        assert self.clf.classify(mix) is WorkloadGroup.SEQUENTIAL_READ

    def test_random_vs_sequential_write_split(self):
        rand = QueueMix(r=0.02, w=0.68, p=0.0, e=0.30, total=1000)
        seq = QueueMix(r=0.02, w=0.30, p=0.0, e=0.68, total=1000)
        assert self.clf.classify(rand) is WorkloadGroup.RANDOM_WRITE
        assert self.clf.classify(seq) is WorkloadGroup.SEQUENTIAL_WRITE

    def test_small_queue_is_unknown(self):
        mix = QueueMix(r=1.0, w=0.0, p=0.0, e=0.0, total=3)
        assert self.clf.classify(mix) is WorkloadGroup.UNKNOWN

    def test_impossible_pairs_unknown(self):
        # R+E and W+P "may not occur" per the paper
        re_mix = QueueMix(r=0.55, w=0.0, p=0.0, e=0.45, total=1000)
        wp_mix = QueueMix(r=0.0, w=0.55, p=0.45, e=0.0, total=1000)
        assert self.clf.classify(re_mix) is WorkloadGroup.UNKNOWN
        assert self.clf.classify(wp_mix) is WorkloadGroup.UNKNOWN

    def test_degenerate_single_tag_mixes(self):
        assert (
            self.clf.classify(QueueMix(0.99, 0.01, 0.0, 0.0, 1000))
            is WorkloadGroup.RANDOM_READ
        )
        assert (
            self.clf.classify(QueueMix(0.01, 0.99, 0.0, 0.0, 1000))
            is WorkloadGroup.RANDOM_WRITE
        )

    def test_mixed_read_floor(self):
        # W-dominated with tiny R is write-intensive, not mixed
        mix = QueueMix(r=0.08, w=0.88, p=0.0, e=0.04, total=1000)
        assert self.clf.classify(mix) is WorkloadGroup.RANDOM_WRITE

    def test_from_counts_normalizes(self):
        mix = QueueMix.from_counts(counts(r=44, w=2, p=51, e=3))
        assert mix.total == 100
        assert mix.r == pytest.approx(0.44)
        assert mix.top_two() == ("P", "R")

    def test_empty_counts(self):
        mix = QueueMix.from_counts(Counter())
        assert mix.total == 0
        assert WorkloadCharacterizer().classify(mix) is WorkloadGroup.UNKNOWN

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CharacterizerConfig(p_dominance=0).validate()
        with pytest.raises(ValueError):
            CharacterizerConfig(min_queue_ops=-1).validate()
        with pytest.raises(ValueError):
            CharacterizerConfig(min_secondary_share=0.6).validate()


class TestPolicyTable:
    def test_paper_assignment(self):
        table = default_policy_table()
        assert table[WorkloadGroup.RANDOM_READ].policy is WritePolicy.WO
        assert table[WorkloadGroup.MIXED_RW].policy is WritePolicy.RO
        assert table[WorkloadGroup.RANDOM_WRITE].policy is WritePolicy.WB
        assert table[WorkloadGroup.RANDOM_WRITE].tail_bypass
        assert table[WorkloadGroup.SEQUENTIAL_WRITE].tail_bypass
        assert table[WorkloadGroup.SEQUENTIAL_READ].policy is WritePolicy.WB
        assert not table[WorkloadGroup.SEQUENTIAL_READ].tail_bypass
        assert table[WorkloadGroup.UNKNOWN].policy is None


class TestBalancer:
    """The balance step: LBICA's Group-3 tail rule and the tail bypass."""

    @pytest.mark.parametrize(
        "pending,disk_qtime,ssd_latency,expected",
        [
            (10, 350.0, 100.0, 7),  # threshold = int(3.5) positions
            (3, 500.0, 100.0, 0),  # the whole queue is below threshold
            (0, 0.0, 100.0, 0),
            (10, 100.0, 0.0, 0),  # a zero latency estimate is guarded
        ],
    )
    def test_tail_past_threshold(self, pending, disk_qtime, ssd_latency, expected):
        assert tail_past_threshold(pending, disk_qtime, ssd_latency) == expected

    def test_threshold_from_disk_queue_time(self, sim, controller, ssd, hdd):
        # empty disk queue → threshold floor of 1: all but the head op
        assert hdd.queue_time() == 0.0
        assert tail_past_threshold(5, hdd.queue_time(), ssd.avg_latency) == 4

    def test_rebalance_moves_tail_writes(self, sim, controller, ssd, hdd):
        # spaced addresses: contiguous ones would merge in the queue
        reqs = [Request(0.0, 100 + i * 50, 1, True) for i in range(10)]
        for r in reqs:
            controller.submit(r)
        stolen_before = ssd.queue.stats.stolen
        moved = controller.bypass_tail(4)
        assert moved == 4
        assert ssd.queue.stats.stolen - stolen_before == moved
        sim.run()
        assert all(r.done for r in reqs)
        assert [r.bypassed for r in reqs] == [False] * 6 + [True] * 4

    def test_rebalance_respects_bound(self, sim, controller, ssd, hdd):
        for i in range(20):
            controller.submit(Request(0.0, 2000 + i * 50, 1, True))
        assert controller.bypass_tail(2) == 2
        assert controller.bypass_tail(0) == 0
        assert ssd.queue.stats.stolen == 2

    def test_moves_only_redirectable_ops(self, sim, controller, ssd, hdd, store):
        # A read of a dirty block has its only valid copy on the SSD.
        store.insert(900, 0.0, dirty=True)
        writes = [Request(0.0, 100 + i * 50, 1, True) for i in range(3)]
        for r in writes:
            controller.submit(r)
        dirty_read = Request(0.0, 900, 1, False)
        controller.submit(dirty_read)
        assert controller.bypass_tail(10) == 2  # the head write is in flight
        assert [op.request for op in ssd.queue.pending] == [dirty_read]
        sim.run()
        assert not dirty_read.bypassed
        assert [r.bypassed for r in writes] == [False, True, True]

    def test_no_candidates_below_threshold(self, sim, controller, ssd, hdd):
        controller.submit(Request(0.0, 300, 1, True))
        past = tail_past_threshold(
            len(ssd.queue.pending), hdd.queue_time(), ssd.avg_latency
        )
        assert past == 0
        assert controller.bypass_tail(past) == 0

    def test_invalid_bound(self):
        for config_cls in (LbicaConfig, SibConfig):
            with pytest.raises(
                ValueError, match="max_bypass_per_round must be positive"
            ):
                config_cls(max_bypass_per_round=0).validate()


class TestLbicaController:
    def _build(self, sim, controller, ssd, hdd, **cfg_kw):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        tracer.attach(hdd)
        # LBICA evaluates once per monitoring interval: every 1,000 µs.
        system = SimpleNamespace(
            sim=sim,
            controller=controller,
            ssd=ssd,
            hdd=hdd,
            tracer=tracer,
            config=SimpleNamespace(interval_us=1000.0),
        )
        defaults = dict(min_cache_qtime_us=0.0, confirm_ticks=1)
        defaults.update(cfg_kw)
        return LbicaController(LbicaConfig(**defaults)).attach(system)

    def test_assigns_wo_on_random_read_burst(self, sim, controller, ssd, hdd, store):
        lbica = self._build(sim, controller, ssd, hdd)
        lbica.start()
        # hit reads (spaced: no merging) feeding across the decision tick
        # so the SSD queue is rising when LBICA evaluates
        for lba in range(0, 4000, 50):
            store.insert(lba, 0.0)

        def feed():
            for lba in range(0, 4000, 50):
                controller.submit(Request(sim.now, lba, 1, False))

        feed()
        sim.schedule(950.0, feed)
        sim.run(until=1000.0)
        assert controller.policy is WritePolicy.WO
        assert lbica.decisions[0].burst
        assert lbica.decisions[0].group is WorkloadGroup.RANDOM_READ

    def test_no_burst_no_action(self, sim, controller, ssd, hdd):
        lbica = self._build(sim, controller, ssd, hdd, min_cache_qtime_us=1e9)
        lbica.start()
        controller.submit(Request(0.0, 1, 1, False))
        sim.run(until=1000.0)
        assert controller.policy is WritePolicy.WB
        assert not lbica.decisions[0].burst

    def test_confirmation_delays_assignment(self, sim, controller, ssd, hdd, store):
        lbica = self._build(sim, controller, ssd, hdd, confirm_ticks=3)
        lbica.start()
        for lba in range(60):
            store.insert(lba, 0.0)

        def feed():
            for lba in range(20):
                controller.submit(Request(sim.now, lba, 1, False))

        feed()
        sim.schedule(900.0, feed)
        sim.run(until=1500.0)
        # only 2 ticks so far → below confirm_ticks → still WB
        assert controller.policy is WritePolicy.WB

    def test_revert_after_quiet(self, sim, controller, ssd, hdd, store):
        lbica = self._build(
            sim, controller, ssd, hdd, revert_after_quiet=2, min_cache_qtime_us=0.0
        )
        lbica.start()
        controller.set_policy(WritePolicy.WO)
        sim.run(until=3000.0)  # idle ticks
        assert controller.policy is WritePolicy.WB

    def test_decision_log_shape(self, sim, controller, ssd, hdd):
        lbica = self._build(sim, controller, ssd, hdd)
        lbica.start()
        sim.run(until=3000.0)
        assert len(lbica.decisions) == 3
        assert [d.interval_index for d in lbica.decisions] == [0, 1, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LbicaConfig(confirm_ticks=0).validate()
        with pytest.raises(ValueError):
            LbicaConfig(revert_after_quiet=0).validate()

    def test_windows_drained_without_window_mix(self, sim, controller, ssd, hdd):
        """Tracer windows must be drained every tick even when the window
        mix is not consulted — otherwise a window spans every interval
        since the last take and take_window_counts returns a stale
        multi-interval mix."""
        lbica = self._build(sim, controller, ssd, hdd, use_window_mix=False)
        lbica.start()
        for i in range(8):
            sim.schedule(i * 1000.0 + 10.0, controller.submit,
                         Request(0.0, i, 1, True))
        sim.run(until=8000.0)
        leftovers = lbica.tracer.take_window_counts(ssd.name)
        # only ops queued since the last tick (at t=8000) may remain
        assert sum(leftovers.values()) <= 1
