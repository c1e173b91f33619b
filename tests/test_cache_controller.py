"""Unit tests for the cache datapath: routing under each write policy.

Which devices served a request is read from its request span: with
``obs.trace`` on, :class:`~repro.obs.runtime.RunTelemetry` records it
from the devices' transitions (``Request`` keeps no such field).
"""

from types import SimpleNamespace

import pytest

from repro.cache.controller import CacheController
from repro.cache.store import CacheStore
from repro.cache.write_policy import WritePolicy, behavior_for
from repro.io.request import OpTag, Request
from repro.obs.config import ObsConfig
from repro.obs.runtime import RunTelemetry


def submit_and_run(sim, controller, lba, nblocks=1, is_write=False):
    req = Request(sim.now, lba, nblocks, is_write)
    controller.submit(req)
    sim.run()
    return req


@pytest.fixture
def telemetry(sim, controller):
    """Span tracing over the bare datapath fixtures (no iostat monitor)."""
    system = SimpleNamespace(
        sim=sim,
        ssd=controller.ssd,
        hdd=controller.hdd,
        controller=controller,
        monitor=SimpleNamespace(add_sample_hook=lambda fn: None),
    )
    return RunTelemetry(system, ObsConfig(enabled=True, metrics=False, trace=True))


def request_span(telemetry, req):
    """The args of ``req``'s request span (exactly one must exist)."""
    [span] = [
        event
        for event in telemetry.spans.events
        if event["cat"] == "request"
        and event["ts"] == req.arrival
        and event["args"]["lba"] == req.lba
    ]
    return span["args"]


class TestPolicyBehaviors:
    def test_behavior_table_matches_paper(self):
        wb = behavior_for(WritePolicy.WB)
        assert wb.cache_writes and not wb.writes_through and wb.writes_dirty
        assert wb.promote_on_miss
        wt = behavior_for(WritePolicy.WT)
        assert wt.cache_writes and wt.writes_through and not wt.writes_dirty
        ro = behavior_for(WritePolicy.RO)
        assert not ro.cache_writes and ro.invalidate_on_write and ro.promote_on_miss
        wo = behavior_for(WritePolicy.WO)
        assert wo.cache_writes and not wo.promote_on_miss

    def test_with_promotion_override(self):
        wt = behavior_for(WritePolicy.WT).with_promotion(False)
        assert not wt.promote_on_miss
        assert behavior_for(WritePolicy.WT).promote_on_miss  # original untouched


class TestReads:
    def test_read_hit_served_by_ssd(self, sim, controller, store, ssd, hdd, telemetry):
        store.insert(10, 0.0)
        req = submit_and_run(sim, controller, 10)
        assert req.done
        span = request_span(telemetry, req)
        assert span["served_by"] == ["ssd"] and span["hit"]
        assert ssd.stats.reads == 1
        assert hdd.stats.reads == 0

    def test_read_miss_served_by_hdd_and_promoted(
        self, sim, controller, store, ssd, hdd, telemetry
    ):
        req = submit_and_run(sim, controller, 10)
        assert req.done
        span = request_span(telemetry, req)
        assert span["served_by"] == ["hdd"] and not span["hit"]
        assert hdd.stats.reads == 1
        assert 10 in store  # promoted
        assert ssd.queue.stats.by_tag == {OpTag.PROMOTE: 1}
        assert ssd.queue.stats.completed == ssd.stats.writes == 1

    def test_wo_read_miss_not_promoted(self, sim, controller, store, hdd):
        controller.set_policy(WritePolicy.WO)
        req = submit_and_run(sim, controller, 10)
        assert req.done
        assert 10 not in store
        assert controller.stats.promotes_issued == 0

    def test_multiblock_read_mixed_hit_miss(
        self, sim, controller, store, ssd, hdd, telemetry
    ):
        store.insert(10, 0.0)
        store.insert(12, 0.0)
        req = submit_and_run(sim, controller, 10, nblocks=4)
        assert req.done
        span = request_span(telemetry, req)
        assert span["served_by"] == ["hdd", "ssd"] and not span["hit"]
        assert controller.stats.read_hit_blocks == 2
        assert controller.stats.read_miss_blocks == 2


class TestWritesWB:
    def test_write_cached_dirty(self, sim, controller, store, ssd, hdd, telemetry):
        req = submit_and_run(sim, controller, 20, is_write=True)
        assert req.done
        assert request_span(telemetry, req)["served_by"] == ["ssd"]
        block = store.peek(20)
        assert block is not None and block.dirty
        assert hdd.stats.writes == 0

    def test_dirty_eviction_generates_e_traffic(self, sim, ssd, hdd):
        store = CacheStore(8, associativity=1)
        controller = CacheController(sim, ssd, hdd, store)
        s = store.num_sets
        submit_and_run(sim, controller, 0, is_write=True)
        submit_and_run(sim, controller, s, is_write=True)  # evicts dirty 0
        assert controller.stats.evict_flushes == 1
        # two cached writes and the evict read on the SSD, the write-back
        # on the HDD, all completed
        assert ssd.queue.stats.by_tag == {OpTag.WRITE: 2, OpTag.EVICT: 1}
        assert ssd.queue.stats.completed == 3 and ssd.stats.reads == 1
        assert hdd.queue.stats.by_tag == {OpTag.EVICT: 1}
        assert hdd.queue.stats.completed == hdd.stats.writes == 1


class TestWritesWT:
    def test_write_mirrored_to_both(self, sim, controller, store, ssd, hdd, telemetry):
        controller.set_policy(WritePolicy.WT)
        req = submit_and_run(sim, controller, 20, is_write=True)
        assert req.done
        assert request_span(telemetry, req)["served_by"] == ["hdd", "ssd"]
        block = store.peek(20)
        assert block is not None and not block.dirty

    def test_wt_completion_waits_for_slowest_leg(self, sim, controller, ssd, hdd):
        controller.set_policy(WritePolicy.WT)
        req = submit_and_run(sim, controller, 20, is_write=True)
        # HDD cached write (400µs) is slower than an idle SSD write (250µs)
        assert req.latency >= max(
            ssd.model.nominal_write_us, hdd.model.nominal_write_us
        ) * 0.9


class TestWritesRO:
    def test_write_bypasses_to_hdd_and_invalidates(
        self, sim, controller, store, ssd, hdd, telemetry
    ):
        store.insert(20, 0.0)
        controller.set_policy(WritePolicy.RO)
        req = submit_and_run(sim, controller, 20, is_write=True)
        assert req.done
        assert request_span(telemetry, req)["served_by"] == ["hdd"]
        assert 20 not in store
        assert ssd.stats.writes == 0
        assert controller.stats.writes_bypassed == 1

    def test_ro_reads_still_promote(self, sim, controller, store):
        controller.set_policy(WritePolicy.RO)
        submit_and_run(sim, controller, 30)
        assert 30 in store


class TestPolicySwitching:
    def test_switch_logged_and_counted(self, sim, controller):
        assert controller.set_policy(WritePolicy.RO)
        assert controller.stats.policy_switches == 1
        assert controller.policy is WritePolicy.RO
        assert [p.policy for p in controller.stats.policy_log] == [
            WritePolicy.WB,
            WritePolicy.RO,
        ]

    def test_noop_switch_returns_false(self, sim, controller):
        assert not controller.set_policy(WritePolicy.WB)
        assert controller.stats.policy_switches == 0

    def test_promotion_override_is_a_change(self, sim, controller):
        assert controller.set_policy(WritePolicy.WB, promote_on_miss=False)
        assert controller.behavior.promote_on_miss is False


class TestRedirection:
    def test_redirect_write_moves_to_hdd_and_invalidates(
        self, sim, controller, store, ssd, hdd
    ):
        req = Request(0.0, 40, 1, True)
        controller.submit(req)
        # steal the pending SSD write before it is dispatched... it may be
        # in flight already (depth 1, submitted immediately); use a second
        # one that queues behind it.
        req2 = Request(0.0, 50, 1, True)
        controller.submit(req2)
        stolen = ssd.queue.steal_tail(1, 0.0, predicate=controller.op_redirectable)
        assert len(stolen) == 1
        controller.redirect_to_disk(stolen[0])
        sim.run()
        assert req2.done
        assert req2.bypassed
        assert 50 not in store
        assert hdd.stats.writes == 1

    def test_redirect_promote_cancels(self, sim, controller, store, ssd):
        # Hold the SSD so the miss read's promotion waits in its queue.
        ssd.pause_dispatch(1e6)
        req = Request(0.0, 60, 1, False)
        controller.submit(req)
        sim.run(until=5e5)
        assert req.done
        stolen = ssd.queue.steal_tail(1, sim.now, predicate=controller.op_redirectable)
        assert [op.tag for op in stolen] == [OpTag.PROMOTE]
        controller.redirect_to_disk(stolen[0])
        assert controller.stats.promotes_cancelled == 1
        assert 60 not in store
        sim.run()
        # the promotion was the SSD's only op: stolen, so never completed
        assert ssd.queue.stats.by_tag == {OpTag.PROMOTE: 1}
        assert ssd.queue.stats.stolen == 1
        assert ssd.queue.stats.completed == ssd.stats.total_ops == 0

    def test_wt_redirect_completes_for_free(self, sim, controller, store, ssd, hdd):
        controller.set_policy(WritePolicy.WT)
        r1 = Request(0.0, 70, 1, True)
        r2 = Request(0.0, 80, 1, True)
        controller.submit(r1)
        controller.submit(r2)
        stolen = ssd.queue.steal_tail(1, 0.0, predicate=controller.op_redirectable)
        assert stolen
        hdd_writes_before = hdd.queue.stats.enqueued
        controller.redirect_to_disk(stolen[0])
        # no *extra* HDD op: the WT mirror is already in flight
        assert hdd.queue.stats.enqueued == hdd_writes_before
        sim.run()
        assert r2.done

    @pytest.mark.xfail(
        strict=True,
        reason="redirect_to_disk judges a stolen write by the current "
        "policy: a write issued under WB has no HDD mirror op, yet after a "
        "switch to a write-through policy it completes at once and no "
        "device ever writes it (LBICA's tail bypass under RO reaches this)",
    )
    @pytest.mark.parametrize("policy", [WritePolicy.RO, WritePolicy.WT])
    def test_write_issued_under_wb_reaches_the_disk(
        self, sim, controller, ssd, hdd, policy
    ):
        first = Request(0.0, 70, 1, True)
        second = Request(0.0, 80, 1, True)
        controller.submit(first)
        controller.submit(second)  # queues behind the first (depth 1)
        controller.set_policy(policy)
        stolen = ssd.queue.steal_tail(1, 0.0, predicate=controller.op_redirectable)
        assert [op.request for op in stolen] == [second]
        controller.redirect_to_disk(stolen[0])
        sim.run()
        assert second.done
        assert hdd.stats.writes == 1
        assert second.complete_time - second.arrival > 0

    def test_redirected_requests_are_served_by_the_disk(
        self, sim, controller, store, ssd, hdd, telemetry
    ):
        # A bypassed read is re-queued at the HDD.  A bypassed WT write
        # (SIB's redirect) is not: its SSD leg is dropped and the
        # mirror op serves it.  Both spans name both devices.
        controller.set_policy(WritePolicy.WT)
        store.insert(90, 0.0)
        first = Request(0.0, 70, 1, True)
        write = Request(0.0, 80, 1, True)
        read = Request(0.0, 90, 1, False)
        for req in (first, write, read):
            controller.submit(req)
        stolen = ssd.queue.steal_tail(2, 0.0, predicate=controller.op_redirectable)
        assert [op.request for op in stolen] == [read, write]
        for op in stolen:
            controller.redirect_to_disk(op)
        sim.run()
        for req in (write, read):
            span = request_span(telemetry, req)
            assert span["bypassed"] and not span["hit"]
            assert span["served_by"] == ["hdd", "ssd"]
        assert request_span(telemetry, first)["served_by"] == ["hdd", "ssd"]
        assert not request_span(telemetry, first)["bypassed"]

    def test_op_redirectable_rules(self, sim, controller, store):
        from repro.io.request import DeviceOp

        w = DeviceOp(0, 1, is_write=True, tag=OpTag.WRITE)
        p = DeviceOp(0, 1, is_write=True, tag=OpTag.PROMOTE)
        e = DeviceOp(0, 1, is_write=False, tag=OpTag.EVICT)
        r = DeviceOp(5, 1, is_write=False, tag=OpTag.READ)
        assert controller.op_redirectable(w)
        assert controller.op_redirectable(p)
        assert not controller.op_redirectable(e)
        assert controller.op_redirectable(r)  # block absent → clean
        store.insert(5, 0.0, dirty=True)
        assert not controller.op_redirectable(r)  # dirty block: SSD only


class TestBackgroundFlush:
    def test_flush_block_cleans(self, sim, controller, store, ssd, hdd):
        submit_and_run(sim, controller, 90, is_write=True)
        assert store.peek(90).dirty
        assert controller.flush_block(90)
        sim.run()
        assert not store.peek(90).dirty
        assert hdd.queue.stats.by_tag == {OpTag.EVICT: 1}
        assert hdd.queue.stats.completed == hdd.stats.writes == 1

    def test_flush_clean_block_is_noop(self, sim, controller, store):
        store.insert(91, 0.0)
        assert not controller.flush_block(91)

    def test_flush_absent_block_is_noop(self, sim, controller):
        assert not controller.flush_block(12345)

    def test_double_flush_guard(self, sim, controller, store):
        submit_and_run(sim, controller, 92, is_write=True)
        assert controller.flush_block(92)
        assert not controller.flush_block(92)  # already in flight


class TestCompletionHooks:
    def test_hooks_fire_per_request(self, sim, controller):
        seen = []
        controller.add_completion_hook(seen.append)
        req = submit_and_run(sim, controller, 100, is_write=True)
        assert seen == [req]

    def test_stats_latency_accumulates(self, sim, controller):
        submit_and_run(sim, controller, 100, is_write=True)
        submit_and_run(sim, controller, 101, is_write=True)
        assert controller.stats.completed == 2
        assert controller.stats.mean_latency > 0
