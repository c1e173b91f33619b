"""Unit tests for the SSD/HDD service models and the device server loop."""

import numpy as np
import pytest

from repro.devices.base import StorageDevice
from repro.devices.hdd import HddConfig, HddModel
from repro.devices.presets import samsung_863a_like, seagate_7200_like
from repro.devices.ssd import SsdConfig, SsdModel
from repro.io.request import DeviceOp, OpTag
from repro.sim.engine import Simulator


def read_op(lba=0, n=1):
    return DeviceOp(lba, n, is_write=False, tag=OpTag.READ)


def write_op(lba=0, n=1):
    return DeviceOp(lba, n, is_write=True, tag=OpTag.WRITE)


class TestSsdModel:
    def test_read_latency_flat(self):
        m = SsdModel(SsdConfig(jitter_sigma=0.0))
        assert m.service_time(read_op(), 0.0) == m.config.read_us
        assert m.service_time(read_op(lba=10**6), 1e6) == m.config.read_us

    def test_write_cost_rises_under_pressure(self):
        cfg = SsdConfig(jitter_sigma=0.0)
        m = SsdModel(cfg)
        first = m.service_time(write_op(), 0.0)
        # hammer writes at the same instant: bucket grows, no decay
        for _ in range(500):
            m.service_time(write_op(), 0.0)
        later = m.service_time(write_op(), 0.0)
        assert first == cfg.write_us
        assert later > first
        assert later <= cfg.cliff_write_us + cfg.per_block_us

    def test_write_pressure_decays_over_time(self):
        cfg = SsdConfig(jitter_sigma=0.0)
        m = SsdModel(cfg)
        for _ in range(500):
            m.service_time(write_op(), 0.0)
        # Price one write at the burst's instant and one ten decay
        # constants later: the bucket drains between them.
        hot = m.service_time(write_op(), 0.0)
        cooled = m.service_time(write_op(), cfg.gc_decay_us * 10)
        assert cooled < hot
        assert cooled == pytest.approx(cfg.write_us, rel=0.03)

    def test_multiblock_transfer_cost(self):
        cfg = SsdConfig(jitter_sigma=0.0)
        m = SsdModel(cfg)
        single = m.service_time(read_op(n=1), 0.0)
        multi = m.service_time(read_op(n=9), 0.0)
        assert multi == pytest.approx(single + 8 * cfg.per_block_us)

    def test_jitter_applied_with_rng(self):
        rng = np.random.default_rng(1)
        m = SsdModel(SsdConfig(jitter_sigma=0.2), rng=rng)
        times = {m.service_time(read_op(), 0.0) for _ in range(10)}
        assert len(times) > 1

    def test_jitter_buffer_matches_one_scalar_draw_per_op(self):
        # Jitter is drawn in blocks of 256; 600 ops cross two refills.
        # Each op must cost its jitter-free price times the next scalar
        # lognormal draw of an identically seeded generator.
        cfg = SsdConfig(jitter_sigma=0.15)
        jittered = SsdModel(cfg, rng=np.random.default_rng(42))
        plain = SsdModel(SsdConfig(jitter_sigma=0.0))
        ref = np.random.default_rng(42)
        for i in range(600):
            op = write_op(lba=i, n=1 + i % 3) if i % 4 == 0 else read_op(lba=i)
            now = i * 400.0
            base = plain.service_time(op, now)
            expected = base * float(ref.lognormal(0.0, cfg.jitter_sigma))
            assert jittered.service_time(op, now) == expected, i

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SsdConfig(read_us=-1).validate()
        with pytest.raises(ValueError):
            SsdConfig(cliff_write_us=1.0, write_us=2.0).validate()
        with pytest.raises(ValueError):
            SsdConfig(gc_knee_blocks=0).validate()

    @pytest.mark.parametrize(
        "field",
        [
            "read_us",
            "write_us",
            "cliff_write_us",
            "per_block_us",
            "gc_decay_us",
            "gc_knee_blocks",
            "jitter_sigma",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SsdConfig(**{field: value}).validate()

    def test_negative_jitter_sigma_rejected(self):
        SsdConfig(jitter_sigma=0.0).validate()  # 0 disables jitter
        with pytest.raises(ValueError, match="jitter_sigma"):
            SsdConfig(jitter_sigma=-0.1).validate()


class TestHddModel:
    def test_draws_match_numpy_uniform_and_lognormal(self):
        # Positioning draws uniform(0.4, 1.6) and uniform(0, 1) as
        # lo + (hi - lo) * random(), and jitter draws lognormal(0, sigma)
        # as exp(sigma * standard_normal()): numpy computes them the same
        # way, so every price and the final generator state must equal
        # those built from numpy's own calls, draw for draw.
        cfg = HddConfig(jitter_sigma=0.2, write_cache_slots=10**6)
        model = HddModel(cfg, rng=np.random.default_rng(7))
        ref = np.random.default_rng(7)
        draws = 0
        for i in range(5000):
            # every read is a far jump; every write lands in the cache
            if i % 3 == 2:
                op = write_op(lba=(i + 1) * 1000, n=1 + i % 4)
                expected = cfg.cached_write_us + cfg.transfer_us_per_block * (
                    op.nblocks - 1
                )
            else:
                op = read_op(lba=(i + 1) * 1000, n=1 + i % 4)
                seek = cfg.avg_seek_us * float(ref.uniform(0.4, 1.6))
                rot = cfg.rotation_us * float(ref.uniform(0.0, 1.0))
                expected = seek + rot + cfg.transfer_us_per_block * op.nblocks
                draws += 2
            expected *= float(ref.lognormal(0.0, cfg.jitter_sigma))
            draws += 1
            assert model.service_time(op, i * 10.0) == expected, i
        assert draws >= 10_000
        assert model.rng.bit_generator.state == ref.bit_generator.state

    def test_random_read_pays_seek_and_rotation(self):
        cfg = HddConfig(jitter_sigma=0.0)
        m = HddModel(cfg)
        t = m.service_time(read_op(lba=10**6), 0.0)
        assert t == pytest.approx(
            cfg.avg_seek_us + cfg.rotation_us / 2 + cfg.transfer_us_per_block
        )

    def test_sequential_streak_is_cheap(self):
        cfg = HddConfig(jitter_sigma=0.0)
        m = HddModel(cfg)
        m.service_time(read_op(lba=1000, n=8), 0.0)
        streak = m.service_time(read_op(lba=1008, n=8), 0.0)
        assert streak == pytest.approx(8 * cfg.transfer_us_per_block)

    def test_far_jump_breaks_streak(self):
        cfg = HddConfig(jitter_sigma=0.0)
        m = HddModel(cfg)
        m.service_time(read_op(lba=1000), 0.0)
        far = m.service_time(read_op(lba=10**6), 0.0)
        assert far > 1000.0

    def test_cached_write_is_fast_until_cache_fills(self):
        cfg = HddConfig(jitter_sigma=0.0, write_cache_slots=4, destage_us=1e9)
        m = HddModel(cfg)
        fast = [m.service_time(write_op(lba=10**6 * (i + 1)), 0.0) for i in range(4)]
        slow = m.service_time(write_op(lba=10**8), 0.0)
        assert all(t == pytest.approx(cfg.cached_write_us) for t in fast)
        assert slow > cfg.cached_write_us * 5

    def test_write_cache_drains_over_time(self):
        cfg = HddConfig(jitter_sigma=0.0, write_cache_slots=4, destage_us=1000.0)
        m = HddModel(cfg)
        for i in range(4):
            m.service_time(write_op(lba=10**6 * (i + 1)), 0.0)
        assert m.write_cache_fill == pytest.approx(1.0)
        # after 4 destage periods the cache is empty again
        t = m.service_time(write_op(lba=10**8), 4000.0)
        assert t == pytest.approx(cfg.cached_write_us)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HddConfig(avg_seek_us=-1).validate()
        with pytest.raises(ValueError):
            HddConfig(destage_us=0).validate()
        with pytest.raises(ValueError):
            HddConfig(cached_write_us=-1.0).validate()

    @pytest.mark.parametrize(
        "field",
        [
            "avg_seek_us",
            "rotation_us",
            "transfer_us_per_block",
            "cached_write_us",
            "destage_us",
            "jitter_sigma",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            HddConfig(**{field: value}).validate()

    def test_negative_jitter_sigma_rejected(self):
        HddConfig(jitter_sigma=0.0).validate()  # 0 disables jitter
        with pytest.raises(ValueError, match="jitter_sigma"):
            HddConfig(jitter_sigma=-1.0).validate()

    def test_negative_seq_window_rejected(self):
        HddConfig(seq_window_blocks=0).validate()
        with pytest.raises(ValueError, match="seq_window_blocks"):
            HddConfig(seq_window_blocks=-5).validate()


class TestPresets:
    def test_presets_construct_and_validate(self):
        ssd = samsung_863a_like()
        hdd = seagate_7200_like()
        assert ssd.nominal_read_us < hdd.nominal_read_us
        assert ssd.config.cliff_write_us > ssd.config.write_us

    def test_preset_isolation(self):
        # mutating one instance's config must not leak into the preset
        a = samsung_863a_like()
        a.config.read_us = 1.0
        b = samsung_863a_like()
        assert b.config.read_us != 1.0


class TestStorageDevice:
    def test_serves_in_fifo_order_depth_1(self):
        sim = Simulator()
        dev = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)), depth=1)
        done = []
        for i in range(3):
            dev.submit(
                DeviceOp(
                    i * 100, 1, is_write=False, tag=OpTag.READ,
                    on_complete=lambda o: done.append(o.lba),
                )
            )
        sim.run()
        assert done == [0, 100, 200]
        assert dev.stats.reads == 3

    def test_depth_allows_parallel_service(self):
        sim = Simulator()
        cfg = SsdConfig(jitter_sigma=0.0)
        deep = StorageDevice(sim, "d2", SsdModel(cfg), depth=4)
        for i in range(4):
            deep.submit(read_op(lba=i * 100))
        sim.run()
        assert sim.now == pytest.approx(cfg.read_us)  # all in parallel

    def test_queue_time_is_eq1(self):
        sim = Simulator()
        dev = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
        for i in range(5):
            dev.submit(read_op(lba=i * 100))
        assert dev.queue_time() == pytest.approx(dev.qsize * dev.avg_latency)
        assert dev.qsize == 5

    def test_latency_ewma_converges_to_service_time(self):
        sim = Simulator()
        cfg = SsdConfig(jitter_sigma=0.0)
        dev = StorageDevice(sim, "ssd", SsdModel(cfg), ewma_alpha=0.5)
        for i in range(20):
            dev.submit(read_op(lba=i * 100))
        sim.run()
        assert dev.read_latency == pytest.approx(cfg.read_us, rel=0.01)

    def test_pause_dispatch_delays_service(self):
        sim = Simulator()
        cfg = SsdConfig(jitter_sigma=0.0)
        dev = StorageDevice(sim, "ssd", SsdModel(cfg))
        dev.pause_dispatch(1000.0)
        done = []
        dev.submit(
            DeviceOp(0, 1, is_write=False, tag=OpTag.READ,
                     on_complete=lambda o: done.append(sim.now))
        )
        sim.run()
        assert done[0] == pytest.approx(1000.0 + cfg.read_us)

    def test_idle_submit_dispatches_in_the_same_call(self):
        sim = Simulator()
        dev = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
        events = []
        for transition in ("queue", "issue"):
            dev.add_transition_observer(
                transition, lambda op, t=transition: events.append((t, op, sim.now))
            )
        sim.run(until=5.0)
        o = read_op()
        dev.submit(o)
        assert events == [("queue", o, 5.0), ("issue", o, 5.0)]
        assert dev.queue.inflight == 1 and not dev.queue.pending
        assert dev.queue.stats.dispatched == 1

    def test_paused_or_saturated_submit_stays_pending(self):
        sim = Simulator()
        issued = {}  # op -> simulated time of its issue transition
        paused = StorageDevice(sim, "p", SsdModel(SsdConfig(jitter_sigma=0.0)))
        paused.add_transition_observer("issue", lambda o: issued.setdefault(o, sim.now))
        paused.pause_dispatch(10.0)
        held = read_op()
        paused.submit(held)
        assert list(paused.queue.pending) == [held]
        assert held not in issued and paused.queue.inflight == 0

        full = StorageDevice(sim, "f", SsdModel(SsdConfig(jitter_sigma=0.0)), depth=2)
        full.add_transition_observer("issue", lambda o: issued.setdefault(o, sim.now))
        first, second, third = read_op(0), read_op(100), read_op(200)
        for o in (first, second, third):
            full.submit(o)
        assert full.queue.inflight == 2
        assert list(full.queue.pending) == [third]
        assert third not in issued
        sim.run()
        assert issued[held] == 10.0
        assert issued[third] > 0.0 and full.queue.stats.completed == 3

    def test_observer_sees_all_transitions(self):
        sim = Simulator()
        dev = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
        events = []
        for transition in ("queue", "issue", "complete"):
            dev.add_transition_observer(
                transition, lambda op, t=transition: events.append(t)
            )
        dev.submit(read_op())
        sim.run()
        assert events == ["queue", "issue", "complete"]
        with pytest.raises(ValueError, match="unknown transition"):
            dev.add_transition_observer("steal", events.append)

    def test_merged_op_completions_chain(self):
        sim = Simulator()
        dev = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
        done = []
        a = DeviceOp(0, 1, is_write=True, tag=OpTag.WRITE,
                     on_complete=lambda o: done.append("a"))
        b = DeviceOp(1, 1, is_write=True, tag=OpTag.WRITE,
                     on_complete=lambda o: done.append("b"))
        dev.pause_dispatch(10.0)  # keep both pending so they can merge
        dev.submit(a)
        dev.submit(b)  # merges into a
        sim.run()
        assert sorted(done) == ["a", "b"]
        assert dev.stats.writes == 1  # a single physical operation

    def test_invalid_depth_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StorageDevice(sim, "x", SsdModel(), depth=0)
