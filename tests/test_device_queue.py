"""Unit tests for the device queue: FIFO, merging, stealing, accounting.

Every op moves through the queue the way a run moves it: submitted to a
:class:`StorageDevice` on a real :class:`Simulator`, dispatched by its
dispatcher and retired by its completion.  A paused dispatcher or a
saturated ``depth`` holds ops pending.
"""

from collections import Counter

import pytest

from repro.devices.base import StorageDevice
from repro.io.request import DeviceOp, OpTag
from repro.sim.engine import Simulator

#: A pause no test runs into: keeps every submitted op pending.
HOLD_US = 1e9


class FixedModel:
    """A stub service model: every op takes ``service_us``."""

    def __init__(self, service_us: float) -> None:
        self.nominal_read_us = self.nominal_write_us = service_us
        self.service_us = service_us

    def service_time(self, op, now):
        return self.service_us


def device(max_merge_blocks=0, depth=1, service_us=1.0, pause_us=0.0):
    dev = StorageDevice(
        Simulator(), "d", FixedModel(service_us), depth=depth,
        max_merge_blocks=max_merge_blocks,
    )
    dev.pause_dispatch(pause_us)
    return dev


def op(lba=0, n=1, write=False, tag=OpTag.READ, stealable=True):
    return DeviceOp(lba, n, is_write=write, tag=tag, stealable=stealable)


class TestFifo:
    def test_pop_order_is_fifo(self):
        dev = device(pause_us=1.0)
        issued = []
        dev.add_transition_observer("issue", issued.append)
        ops = [op(lba=i * 10) for i in range(5)]
        for o in ops:
            dev.submit(o)
        dev.sim.run()
        assert issued == ops
        assert dev.queue.stats.dispatched == dev.queue.stats.completed == 5

    def test_dispatch_with_nothing_pending_is_a_no_op(self):
        dev = device(pause_us=1.0)
        dev.sim.run()  # the pause ends with an empty queue
        assert dev.queue.stats.dispatched == 0
        assert dev.queue.inflight == 0

    def test_qsize_counts_pending_and_inflight(self):
        dev = device(service_us=5.0)
        dev.submit(op(0))
        dev.submit(op(10))
        assert dev.queue.inflight == 1
        assert dev.qsize == 2  # one pending + one in flight
        dev.sim.run(until=5.0)  # first retires, second dispatched
        assert dev.queue.inflight == 1
        assert dev.qsize == 1
        dev.sim.run()
        assert dev.qsize == 0

    def test_timestamps_recorded(self):
        # An op carries no timestamps; each transition's observers see
        # the op at the simulated time of that transition.
        dev = device(service_us=6.0, pause_us=3.0)
        seen = []
        for transition in ("queue", "issue", "complete"):
            dev.add_transition_observer(
                transition, lambda o, t=transition: seen.append((t, o, dev.sim.now))
            )
        o = op()
        dev.sim.schedule(1.0, dev.submit, o)
        dev.sim.run()
        assert seen == [("queue", o, 1.0), ("issue", o, 3.0), ("complete", o, 9.0)]


class TestMerging:
    def test_back_merge_against_tail(self):
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        a = op(0, 2, write=True, tag=OpTag.WRITE)
        b = op(2, 2, write=True, tag=OpTag.WRITE)
        dev.submit(a)
        dev.submit(b)  # merged
        assert list(dev.queue.pending) == [a]
        assert a.nblocks == 4
        assert a.merged == [b]
        assert dev.queue.stats.merged == 1

    def test_merge_disabled_with_zero_bound(self):
        dev = device(max_merge_blocks=0, pause_us=HOLD_US)
        dev.submit(op(0, 2, write=True, tag=OpTag.WRITE))
        dev.submit(op(2, 2, write=True, tag=OpTag.WRITE))
        assert len(dev.queue.pending) == 2
        assert dev.queue.stats.merged == 0

    def test_non_contiguous_does_not_merge(self):
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        dev.submit(op(0, 2, write=True, tag=OpTag.WRITE))
        dev.submit(op(5, 2, write=True, tag=OpTag.WRITE))
        assert len(dev.queue.pending) == 2
        assert dev.queue.stats.merged == 0

    def test_different_direction_does_not_merge(self):
        # same tag and contiguous: only the direction differs
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        dev.submit(op(0, 2, write=False, tag=OpTag.EVICT))
        dev.submit(op(2, 2, write=True, tag=OpTag.EVICT))
        assert len(dev.queue.pending) == 2
        assert dev.queue.stats.merged == 0

    def test_different_tag_does_not_merge(self):
        # same direction and contiguous: only the tag differs
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        dev.submit(op(0, 2, write=True, tag=OpTag.WRITE))
        dev.submit(op(2, 2, write=True, tag=OpTag.PROMOTE))
        assert len(dev.queue.pending) == 2
        assert dev.queue.stats.merged == 0

    def test_merge_bound_respected(self):
        # 6 + 4 blocks merge only where the bound allows 10
        for bound, merged in ((9, 0), (10, 1), (16, 1)):
            dev = device(max_merge_blocks=bound, pause_us=HOLD_US)
            a = op(0, 6, write=True, tag=OpTag.WRITE)
            dev.submit(a)
            dev.submit(op(6, 4, write=True, tag=OpTag.WRITE))
            assert dev.queue.stats.merged == merged, bound
            assert len(dev.queue.pending) == 2 - merged, bound

    def test_merge_only_against_tail(self):
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        dev.submit(op(0, 2, write=True, tag=OpTag.WRITE))
        dev.submit(op(100, 1))  # interleaved read
        dev.submit(op(2, 2, write=True, tag=OpTag.WRITE))
        assert len(dev.queue.pending) == 3

    def test_snapshot_counts_merged_ops_individually(self):
        dev = device(max_merge_blocks=8, pause_us=HOLD_US)
        dev.submit(op(0, 1, write=True, tag=OpTag.WRITE))
        dev.submit(op(1, 1, write=True, tag=OpTag.WRITE))
        counts = dev.queue.snapshot_tags()
        assert counts[OpTag.WRITE] == 2


class TestSnapshot:
    def test_tag_composition(self):
        dev = device(pause_us=HOLD_US)
        dev.submit(op(0, tag=OpTag.READ))
        dev.submit(op(10, write=True, tag=OpTag.WRITE))
        dev.submit(op(20, write=True, tag=OpTag.PROMOTE))
        dev.submit(op(30, tag=OpTag.EVICT))
        dev.submit(op(40, tag=OpTag.READ))
        assert dev.queue.snapshot_tags() == Counter(
            {OpTag.READ: 2, OpTag.WRITE: 1, OpTag.PROMOTE: 1, OpTag.EVICT: 1}
        )

    def test_inflight_not_in_snapshot(self):
        dev = device()
        dev.submit(op(0, tag=OpTag.READ))  # dispatched at once
        dev.submit(op(10, tag=OpTag.EVICT))
        assert dev.queue.snapshot_tags() == Counter({OpTag.EVICT: 1})


class TestStealTail:
    def test_steals_from_tail(self):
        dev = device(pause_us=HOLD_US)
        ops = [op(lba=i) for i in range(5)]
        for o in ops:
            dev.submit(o)
        stolen = dev.queue.steal_tail(2, 1.0)
        assert stolen == [ops[4], ops[3]]
        assert list(dev.queue.pending) == ops[:3]
        assert dev.queue.stats.stolen == 2

    def test_unstealable_ops_left_in_place(self):
        dev = device(pause_us=HOLD_US)
        a = op(0)
        b = op(1, stealable=False)
        c = op(2)
        for o in (a, b, c):
            dev.submit(o)
        stolen = dev.queue.steal_tail(5, 1.0)
        assert stolen == [c, a]
        assert list(dev.queue.pending) == [b]

    def test_predicate_filters(self):
        dev = device(pause_us=HOLD_US)
        r = op(0, tag=OpTag.READ)
        w = op(1, write=True, tag=OpTag.WRITE)
        for o in (r, w):
            dev.submit(o)
        stolen = dev.queue.steal_tail(
            5, 1.0, predicate=lambda o: o.tag is OpTag.WRITE
        )
        assert stolen == [w]
        assert list(dev.queue.pending) == [r]

    def test_steal_zero_returns_empty(self):
        dev = device(pause_us=HOLD_US)
        dev.submit(op(0))
        assert dev.queue.steal_tail(0, 1.0) == []

    def test_order_preserved_after_partial_steal(self):
        dev = device(pause_us=HOLD_US)
        ops = [op(lba=i, stealable=(i % 2 == 0)) for i in range(6)]
        for o in ops:
            dev.submit(o)
        dev.queue.steal_tail(2, 1.0)  # steals lba 4 and 2 (even, from tail)
        assert [o.lba for o in dev.queue.pending] == [0, 1, 3, 5]


class TestOccupancyWindows:
    def test_window_max_tracks_peak(self):
        dev = device(service_us=1.0, pause_us=3.0)
        sim = dev.sim
        dev.queue.reset_window(0.0)
        sim.schedule(1.0, dev.submit, op(0))
        sim.schedule(2.0, dev.submit, op(1))
        sim.run(until=10.0)
        avg, peak = dev.queue.window_stats(10.0)
        assert peak == 2
        # qsize 1 over [1, 2), 2 over [2, 4), 1 over [4, 5): area 6
        assert avg == pytest.approx(0.6)

    def test_reset_window_clears_peak(self):
        dev = device(service_us=1.0, pause_us=2.0)
        sim = dev.sim
        dev.queue.reset_window(0.0)
        sim.schedule(1.0, dev.submit, op(0))
        sim.run(until=5.0)
        dev.queue.reset_window(5.0)
        avg, peak = dev.queue.window_stats(6.0)
        assert peak == 0
        assert avg == 0.0

    def test_time_weighted_average(self):
        dev = device(pause_us=HOLD_US)
        dev.queue.reset_window(0.0)
        dev.submit(op(0))  # qsize 1 for the whole window
        dev.sim.run(until=10.0)
        avg, _ = dev.queue.window_stats(10.0)
        assert avg == 1.0
