"""Tests for trace replay: chunked scheduling, equivalence, edges."""

import pytest

import repro.workloads.replay as replay_mod

from repro.config import quick_config
from repro.experiments.system import ExperimentSystem
from repro.io.request import OpTag
from repro.scenario.fingerprint import stats_fingerprint
from repro.sim.engine import Simulator
from repro.trace.parser import TraceParseError, iter_trace
from repro.trace.operators import time_compress
from repro.trace.records import TraceRecord
from repro.trace.synth import synthetic_trace
from repro.workloads.replay import CHUNK_RECORDS, ReplayWorkload


def rec(time, lba=0, n=1, is_write=False, action="Q", tag=None, op_id=0):
    if tag is None:
        tag = OpTag.WRITE if is_write else OpTag.READ
    return TraceRecord(time, "ssd", action, tag, is_write, lba, n, op_id)


@pytest.fixture
def chunk_records(monkeypatch):
    """Shrink the replay chunk so a few records cross chunk boundaries."""

    def set_chunk(n):
        monkeypatch.setattr(replay_mod, "CHUNK_RECORDS", n)

    return set_chunk


class TestModeSelection:
    def test_generator_defaults_to_streaming(self, sim):
        """A generator is pulled lazily: bind takes one chunk from it."""
        pulled = []

        def source():
            for i in range(CHUNK_RECORDS + 10):
                pulled.append(i)
                yield rec(float(i), op_id=i)

        wl = ReplayWorkload(source())
        assert pulled == []
        wl.bind(sim, lambda r: None, None)
        assert len(pulled) == CHUNK_RECORDS
        assert sim.pending_events == CHUNK_RECORDS

    def test_list_schedules_one_chunk_at_bind(self, sim):
        """A list replays through the same chunked scheduler: bind leaves
        one chunk on the calendar, not the whole trace."""
        n = 2 * CHUNK_RECORDS + 5
        wl = ReplayWorkload([rec(float(n - i), op_id=i) for i in range(n)])
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        assert sim.pending_events == CHUNK_RECORDS
        sim.run()
        assert arrivals == [float(t) for t in range(1, n + 1)]
        assert wl.stats.generated == n
        assert wl.stats.finished

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ReplayWorkload()
        with pytest.raises(ValueError, match="exactly one"):
            ReplayWorkload([rec(1.0)], streams=[[rec(1.0)]])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ReplayWorkload(iter([]), duration_us=-1.0)


class TestStreamingExecution:
    def test_arrivals_match_materialized(self, sim, chunk_records):
        chunk_records(3)
        records = [rec(10.0 * i, lba=i, op_id=i) for i in range(10)]
        streamed = []
        wl = ReplayWorkload(iter(records))
        wl.bind(sim, lambda r: streamed.append((sim.now, r.lba)), None)
        sim.run()
        assert streamed == [(10.0 * i, i) for i in range(10)]
        assert wl.stats.generated == 10
        assert wl.stats.finished

    def test_multiple_chunks_refill(self, sim):
        n = CHUNK_RECORDS + 100
        wl = ReplayWorkload(synthetic_trace(n, seed=3))
        count = [0]

        def sink(request):
            count[0] += 1

        wl.bind(sim, sink, None)
        sim.run()
        assert count[0] == n
        assert wl.stats.finished

    def test_skipped_counted_lazily(self, sim):
        records = [
            rec(1.0),
            rec(2.0, action="D"),  # dispatch: skipped
            rec(3.0, tag=OpTag.PROMOTE, is_write=True),  # cache traffic
            rec(4.0),
        ]
        wl = ReplayWorkload(iter(records))
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.stats.generated == 2
        assert wl.stats.skipped == 2

    def test_time_scale_applied(self, sim):
        wl = ReplayWorkload(time_compress(iter([rec(100.0)]), 2.0))
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [50.0]

    def test_late_bind_clamps_to_floor(self, sim):
        """Arrivals before bind-time are clamped, not scheduled in the past."""
        sim.schedule_at(500.0, lambda: None)
        sim.run()
        wl = ReplayWorkload(iter([rec(100.0), rec(600.0)]))
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [500.0, 600.0]

    def test_empty_streaming_trace(self, sim):
        wl = ReplayWorkload(iter([]))
        wl.bind(sim, lambda r: None, None)
        assert wl.stats.finished
        assert wl.duration_us == 0.0


class TestChunkAtomicity:
    def test_parse_error_mid_chunk_schedules_nothing_from_it(
        self, sim, tmp_path, chunk_records
    ):
        """A malformed line surfacing mid-chunk must not leave a partial
        chunk scheduled: complete chunks replay, the failing chunk is
        atomic."""
        chunk_records(4)
        path = tmp_path / "broken.trace"
        good = "\n".join(f"{10.0 * (i + 1)} ssd Q R R {i} 1 {i}" for i in range(6))
        path.write_text(good + "\nthis line is garbage\n")
        wl = ReplayWorkload(iter_trace(path))
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(r.lba), None)
        with pytest.raises(TraceParseError) as err:
            sim.run()
        # chunk 1 (records 0-3) replayed; chunk 2 hit the bad line while
        # being pulled, so records 4-5 never became arrivals
        assert arrivals == [0, 1, 2, 3]
        assert err.value.lineno == 7
        assert err.value.path == str(path)

    def test_error_in_first_chunk_fails_at_bind(self, sim, tmp_path):
        path = tmp_path / "broken.trace"
        path.write_text("garbage\n")
        wl = ReplayWorkload(iter_trace(path))
        with pytest.raises(TraceParseError):
            wl.bind(sim, lambda r: None, None)
        sim.run()
        assert sim.events_processed == 0  # nothing was scheduled

    def test_unsorted_across_chunk_boundary_rejected(self, sim, chunk_records):
        chunk_records(2)
        records = [rec(10.0), rec(20.0), rec(5.0), rec(30.0)]
        wl = ReplayWorkload(iter(records))
        wl.bind(sim, lambda r: None, None)
        with pytest.raises(ValueError, match="chunk boundary"):
            sim.run()

    def test_unsorted_within_chunk_tolerated(self, sim, chunk_records):
        """Within a chunk the pull sorts, so local jitter is fine."""
        chunk_records(4)
        records = [rec(20.0, op_id=0), rec(10.0, op_id=1)]
        wl = ReplayWorkload(iter(records))
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append(sim.now), None)
        sim.run()
        assert arrivals == [10.0, 20.0]


class TestDuration:
    def test_streaming_duration_unknown_until_exhausted(self):
        wl = ReplayWorkload(synthetic_trace(CHUNK_RECORDS * 2, seed=1))
        with pytest.raises(ValueError, match="duration_us"):
            wl.duration_us

    def test_explicit_duration_wins(self):
        wl = ReplayWorkload(synthetic_trace(10, seed=1), duration_us=123.0)
        assert wl.duration_us == 123.0

    def test_single_chunk_trace_knows_duration_after_bind(self, sim, chunk_records):
        chunk_records(16)
        wl = ReplayWorkload(iter([rec(10.0), rec(40.0)]))
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.duration_us == 40.0

    def test_materialized_duration_still_computed(self):
        assert ReplayWorkload([rec(40.0), rec(10.0)]).duration_us == 40.0


class TestMultiTenantStreams:
    def test_streams_tag_tenant_ids(self, sim):
        a = [rec(0.0, lba=1), rec(20.0, lba=2)]
        b = [rec(10.0, lba=100), rec(30.0, lba=200)]
        wl = ReplayWorkload(streams=[iter(a), iter(b)])
        arrivals = []
        wl.bind(sim, lambda r: arrivals.append((sim.now, r.tenant_id)), None)
        sim.run()
        assert arrivals == [(0.0, 0), (10.0, 1), (20.0, 0), (30.0, 1)]
        assert wl.stats.generated == 4

    def test_streams_skip_counting_covers_all_streams(self, sim):
        a = [rec(0.0), rec(1.0, action="D")]
        b = [rec(0.5, action="C")]
        wl = ReplayWorkload(streams=[iter(a), iter(b)])
        wl.bind(sim, lambda r: None, None)
        sim.run()
        assert wl.stats.generated == 1
        assert wl.stats.skipped == 2


class TestStreamedEqualsMaterialized:
    def test_stats_fingerprint_identical(self, chunk_records):
        """A list and a generator of the same trace produce bit-identical
        run statistics."""
        chunk_records(256)
        cfg = quick_config(7)
        horizon = 3_000 * 50.0

        def run(workload):
            return ExperimentSystem(workload, "lbica", cfg).run(until_us=horizon)

        materialized = run(ReplayWorkload(list(synthetic_trace(3_000, seed=7))))
        streamed = run(ReplayWorkload(synthetic_trace(3_000, seed=7)))
        assert stats_fingerprint(streamed) == stats_fingerprint(materialized)
        assert streamed.workload_stats == materialized.workload_stats

    def test_run_result_reports_skipped_records(self):
        cfg = quick_config(7)
        records = [rec(50.0, n=8), rec(60.0, action="D", n=8), rec(70.0, n=8)]
        wl = ReplayWorkload(iter(records), duration_us=100.0)
        result = ExperimentSystem(wl, "wb", cfg).run(until_us=5_000.0)
        assert result.workload_stats["generated"] == 2
        assert result.workload_stats["skipped"] == 1

    def test_non_replay_runs_omit_skipped_key(self):
        """Keeps every committed golden fingerprint byte-identical."""
        from repro.workloads.synthetic import mixed_read_write_workload

        cfg = quick_config()
        wl = mixed_read_write_workload(
            cfg.interval_us, n_intervals=2, cache_blocks=cfg.cache_blocks
        )
        result = ExperimentSystem(wl, "wb", cfg).run()
        assert "skipped" not in result.workload_stats


class TestConstantMemory:
    def test_rss_independent_of_trace_length(self):
        """Replaying 8x the records must not grow resident memory by more
        than noise: the streaming chunker holds one chunk, never the
        trace."""
        import re
        from pathlib import Path

        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status on this platform")

        def rss_kb():
            match = re.search(r"VmRSS:\s+(\d+) kB", status.read_text())
            assert match is not None
            return int(match.group(1))

        def replay(n):
            sim = Simulator()
            wl = ReplayWorkload(synthetic_trace(n, seed=5), duration_us=n * 75.0)
            wl.bind(sim, lambda r: None, None)
            sim.run()
            assert wl.stats.generated == n

        replay(50_000)  # warm up allocator pools and code paths
        before = rss_kb()
        replay(400_000)
        grown = rss_kb() - before
        assert grown < 32_768, f"streaming replay grew RSS by {grown} kB"
