"""Unit tests for the iostat/blktrace substrates and the trace parser."""

from collections import Counter

import pytest

from repro.core.bottleneck import cache_is_bottleneck
from repro.io.request import DeviceOp, OpTag, Request
from repro.trace.blktrace import BlkTracer
from repro.trace.iostat import IostatMonitor, TenantWindows, eq1_queue_time
from repro.trace.parser import (
    TraceParseError,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
)
from repro.trace.records import TraceRecord


def read_op(lba=0):
    return DeviceOp(lba, 1, is_write=False, tag=OpTag.READ)


class TestEq1:
    def test_formula(self):
        assert eq1_queue_time(10, 100.0) == 1000.0
        assert eq1_queue_time(0, 100.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eq1_queue_time(-1, 1.0)
        with pytest.raises(ValueError):
            eq1_queue_time(1, -1.0)


class TestBlkTracer:
    def test_records_qdc_transitions(self, sim, ssd):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        ssd.submit(read_op())
        sim.run()
        assert [r.action for r in tracer.records] == ["Q", "D", "C"]

    def test_double_attach_rejected(self, sim, ssd):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        with pytest.raises(ValueError):
            tracer.attach(ssd)

    def test_queue_snapshot_matches_pending(self, sim, ssd):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        for i in range(3):
            ssd.submit(DeviceOp(i * 10, 1, is_write=True, tag=OpTag.PROMOTE))
        snap = tracer.queue_snapshot("ssd")
        # one op is in flight (depth 1), two pending
        assert snap[OpTag.PROMOTE] == 2

    def test_queue_mix_fractions(self, sim, ssd):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        ssd.submit(read_op(0))  # goes in flight
        ssd.submit(read_op(100))
        ssd.submit(DeviceOp(200, 1, is_write=True, tag=OpTag.WRITE))
        mix = tracer.queue_mix("ssd")
        assert mix["R"] == pytest.approx(0.5)
        assert mix["W"] == pytest.approx(0.5)

    def test_mix_of_unknown_device_raises(self, sim):
        tracer = BlkTracer(sim)
        with pytest.raises(KeyError):
            tracer.queue_snapshot("nope")

    def test_window_counts_reset_on_take(self, sim, ssd):
        tracer = BlkTracer(sim)
        tracer.attach(ssd)
        ssd.submit(read_op(0))
        counts = tracer.take_window_counts("ssd")
        assert counts[OpTag.READ] == 1
        assert tracer.take_window_counts("ssd") == Counter()

    @pytest.mark.parametrize("record_events", [True, False])
    def test_window_counts_are_queue_deltas(self, sim, ssd, record_events):
        ssd.submit(read_op(0))  # queued before attach: never counted
        tracer = BlkTracer(sim, record_events=record_events)
        tracer.attach(ssd)
        for lba, tag in ((100, OpTag.WRITE), (101, OpTag.WRITE), (200, OpTag.PROMOTE)):
            ssd.submit(DeviceOp(lba, 1, is_write=True, tag=tag))
        assert ssd.queue.stats.merged == 1  # lba 101 joined lba 100
        assert tracer.take_window_counts("ssd") == Counter(
            {OpTag.WRITE: 2, OpTag.PROMOTE: 1}
        )
        idle = tracer.take_window_counts("ssd")
        assert idle == Counter() and not idle
        sim.run()
        ssd.submit(read_op(300))
        assert tracer.take_window_counts("ssd") == Counter({OpTag.READ: 1})
        assert ssd.queue.stats.by_tag == Counter(
            {OpTag.READ: 2, OpTag.WRITE: 2, OpTag.PROMOTE: 1}
        )

    def test_ring_buffer_drops_old_records(self, sim, ssd):
        tracer = BlkTracer(sim, capacity=5)
        tracer.attach(ssd)
        for i in range(10):
            ssd.submit(read_op(i * 100))
        sim.run()
        assert len(tracer.records) == 5
        assert tracer.dropped > 0


class TestIostatMonitor:
    def test_samples_every_interval(self, sim, ssd, hdd):
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=100.0)
        monitor.start()
        sim.run(until=1000.0)
        assert len(monitor.samples) == 10
        assert monitor.samples[0].t_end == pytest.approx(100.0)

    def test_queue_peaks_captured(self, sim, ssd, hdd):
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=10_000.0)
        monitor.start()
        for i in range(5):
            ssd.submit(read_op(i * 100))
        sim.run(until=10_000.0)
        assert monitor.samples[0].ssd_qsize_max == 5
        assert monitor.samples[0].cache_qtime > 0

    def test_completion_accounting(self, sim, ssd, hdd):
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=10_000.0)
        monitor.start()
        req = Request(0.0, 0, 1, False)
        req.complete_time = 500.0
        monitor.record_completion(req)
        sim.run(until=10_000.0)
        s = monitor.samples[0]
        assert s.completed == 1
        assert s.reads == 1
        assert s.avg_latency == pytest.approx(500.0)
        assert s.max_latency == pytest.approx(500.0)

    def test_accumulator_resets_between_intervals(self, sim, ssd, hdd):
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=100.0)
        monitor.start()
        req = Request(0.0, 0, 1, True)
        req.complete_time = 10.0
        monitor.record_completion(req)
        sim.run(until=300.0)
        assert monitor.samples[0].completed == 1
        assert monitor.samples[1].completed == 0

    def test_tenant_windows_over_two_ticks(self, sim, ssd, hdd):
        # Two tenants complete requests in each of two windows; the third
        # window is idle.  Entries: (completion time, tenant, is_write,
        # latency, bypassed).
        script = [
            [
                (10.0, 0, False, 0.1, False),
                (20.0, 1, True, 7.5, False),
                (30.0, 0, False, 0.2, True),
                (40.0, 0, True, 0.3, False),
                (50.0, 1, False, 3.3, False),
            ],
            [
                (110.0, 1, True, 0.7, False),
                (120.0, 0, False, 1.1, False),
                (130.0, 1, True, 0.1, True),
            ],
            [],
        ]
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=100.0)
        monitor.start()
        windows = []
        for entries in script:
            reqs = []
            for t, tenant, is_write, lat, bypassed in entries:
                req = Request(t - lat, 0, 1, is_write, tenant)
                req.complete_time = t
                req.bypassed = bypassed
                sim.schedule_at(t, monitor.record_completion, req)
                reqs.append(req)
            windows.append(reqs)
        sim.run(until=300.0)
        assert len(monitor.samples) == 3
        for sample, reqs in zip(monitor.samples, windows):
            assert sample.completed == sample.reads + sample.writes == len(reqs)
            assert sample.writes == sum(r.is_write for r in reqs)
            assert sample.bypassed == sum(r.bypassed for r in reqs)
            counts: dict[int, int] = {}
            sums: dict[int, float] = {}
            for r in reqs:
                tid = r.tenant_id
                counts[tid] = counts.get(tid, 0) + 1
                sums[tid] = sums.get(tid, 0.0) + (r.complete_time - r.arrival)
            assert sample.tenant_completed == counts
            assert sample.tenant_avg_latency == {
                tid: sums[tid] / n for tid, n in counts.items()
            }
        assert monitor.samples[0].tenant_completed == {0: 3, 1: 2}
        assert monitor.samples[1].tenant_completed == {1: 2, 0: 1}
        idle = monitor.samples[2]
        assert idle.completed == 0
        assert idle.tenant_completed == {}
        assert idle.tenant_avg_latency == {}

    def test_bottleneck_flag(self, sim, ssd, hdd):
        monitor = IostatMonitor(sim, ssd, hdd, interval_us=100.0)
        monitor.start()
        for i in range(50):
            ssd.submit(read_op(i * 100))
        sim.run(until=100.0)
        sample = monitor.samples[0]
        assert cache_is_bottleneck(sample.cache_qtime, sample.disk_qtime, 1.0, 0.0)

    def test_invalid_interval_rejected(self, sim, ssd, hdd):
        with pytest.raises(ValueError):
            IostatMonitor(sim, ssd, hdd, interval_us=0)

    def test_on_sample_callback(self, sim, ssd, hdd):
        seen = []
        monitor = IostatMonitor(sim, ssd, hdd, 100.0)
        monitor.add_sample_hook(seen.append)
        monitor.start()
        sim.run(until=250.0)
        assert seen == monitor.samples
        assert len(seen) == 2


def completed(tenant_id, arrival, complete_time):
    request = Request(arrival, 0, 1, False, tenant_id=tenant_id)
    request.complete_time = complete_time
    return request


class TestTenantWindows:
    def test_take_closes_only_that_tenants_window(self, controller):
        windows = TenantWindows(controller)
        windows.record(completed(0, 0.0, 5.0))
        windows.record(completed(1, 1.0, 4.0))
        stats = controller.stats.tenant(0)
        stats.read_hit_blocks, stats.read_miss_blocks = 3, 1
        assert windows.take(0) == ([5.0], 3, 1)
        assert windows.take(0) == ([], 0, 0)
        stats.read_hit_blocks += 2
        assert windows.take(0) == ([], 2, 0)
        assert windows.take(1) == ([3.0], 0, 0)

    def test_each_consumer_has_its_own_windows(self, controller):
        first, second = TenantWindows(controller), TenantWindows(controller)
        controller.stats.tenant(0).read_miss_blocks = 2
        assert first.take(0) == ([], 0, 2)
        assert second.take(0) == ([], 0, 2)

    def test_tenant_filter(self, controller):
        windows = TenantWindows(controller, tenants=[1])
        windows.record(completed(0, 0.0, 1.0))
        windows.record(completed(1, 0.0, 2.0))
        assert windows.take(0) == ([], 0, 0)
        assert windows.take(1) == ([2.0], 0, 0)

    def test_forget_drops_pending_latencies(self, controller):
        windows = TenantWindows(controller)
        stats = controller.stats.tenant(2)
        stats.read_hit_blocks = 4
        windows.take(2)
        windows.record(completed(2, 0.0, 7.0))
        stats.read_hit_blocks += 1
        windows.forget(2)
        # the latencies go; the counter baseline stays
        assert windows.take(2) == ([], 1, 0)


class TestTraceParser:
    def _records(self):
        return [
            TraceRecord(1.5, "ssd", "Q", OpTag.READ, False, 100, 1, 7),
            TraceRecord(2.5, "ssd", "D", OpTag.READ, False, 100, 1, 7),
            TraceRecord(9.0, "hdd", "C", OpTag.EVICT, True, 200, 8, 8),
        ]

    def test_round_trip_string(self):
        recs = self._records()
        assert loads_trace(dumps_trace(recs)) == recs

    def test_round_trip_file(self, tmp_path):
        recs = self._records()
        path = tmp_path / "trace.txt"
        assert save_trace(recs, path) == 3
        assert load_trace(path) == recs

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n1.0 ssd Q R R 5 1 1\n"
        assert len(loads_trace(text)) == 1

    def test_malformed_field_count(self):
        with pytest.raises(TraceParseError) as err:
            loads_trace("1.0 ssd Q R R 5 1\n")
        assert err.value.lineno == 1

    def test_bad_action(self):
        with pytest.raises(TraceParseError):
            loads_trace("1.0 ssd X R R 5 1 1\n")

    def test_bad_tag(self):
        with pytest.raises(TraceParseError):
            loads_trace("1.0 ssd Q Z R 5 1 1\n")

    def test_bad_rw(self):
        with pytest.raises(TraceParseError):
            loads_trace("1.0 ssd Q R B 5 1 1\n")

    def test_bad_numbers(self):
        with pytest.raises(TraceParseError):
            loads_trace("abc ssd Q R R 5 1 1\n")
        with pytest.raises(TraceParseError):
            loads_trace("1.0 ssd Q R R 5 0 1\n")  # zero nblocks
        with pytest.raises(TraceParseError):
            loads_trace("-1.0 ssd Q R R 5 1 1\n")  # negative time


class TestCountersOnlyMode:
    """record_events=False: identical statistics, no retained records."""

    def test_counters_only_run_matches_full_run(self):
        from repro.config import quick_config
        from repro.scenario import get_scenario
        from repro.scenario.fingerprint import stats_fingerprint

        spec = get_scenario("fig4_single_vm")
        full = spec.build(quick_config(7), trace_records=True)
        full_result = full.run()
        lean = spec.build(quick_config(7), trace_records=False)
        lean_result = lean.run()
        # The fingerprint pins everything the characterizer consumes
        # (window counters, queue snapshots) — records are pure output.
        assert stats_fingerprint(full_result) == stats_fingerprint(lean_result)
        assert len(full.tracer.records) > 0
        assert len(lean.tracer.records) == 0

    def test_scenario_run_uses_counters_only_mode(self):
        # ScenarioSpec.run drops the system object, so building per-op
        # trace records there would be pure waste; build() must default
        # to full records for direct (replay/inspection) construction.
        import inspect

        from repro.scenario.spec import ScenarioSpec

        src = inspect.getsource(ScenarioSpec.run)
        assert "trace_records=False" in src
