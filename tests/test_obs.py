"""Tests for the runtime observability layer (repro.obs).

The acceptance-critical behaviors: arming telemetry must not change
simulation results (stats fingerprints and event counts are identical
with obs on or off), exported traces must be valid Chrome trace-event
JSON, and the metrics series must be deterministic across runs once
wall-clock fields are stripped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import (
    CampaignSpec,
    campaign_status,
    run_campaign,
    status_table,
)
from repro.campaign.cli import main as campaign_main
from repro.campaign.report import ScenarioStatus
from repro.config import SystemConfig
from repro.experiments.runner import run_perf_counters
from repro.obs import (
    TRACE_REQUIRED_FIELDS,
    Histogram,
    MetricsHub,
    ObsConfig,
    SpanTracer,
    strip_wall,
)
from repro.obs.cli import main as obs_main
from repro.scenario.fingerprint import stats_fingerprint
from repro.scenario.registry import get_scenario
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.sim.engine import Simulator
from repro.store import RunArtifact, RunStore


#: sha256 of ``RunTelemetry.write_trace`` for full quick runs of
#: ``workload/scheme``.  The digests were taken while requests and device
#: ops still carried their own span fields (``served_by`` and three op
#: timestamps), so they pin that sourcing spans in the obs layer left
#: every exported byte as it was.
TRACE_DIGESTS = {
    "mail/lbica": "2793bf633afe373e5cdcd43a24da05b436a1f9c7da48edb0f20ef542733c1ef0",
    "mail/sib": "752e0a5e1686fb2ed06648ebd4bcc08ae4d346160a1d61c4238660d51447e5af",
    "consolidated3/dynshare": (
        "74bc7dc8f65c6649c00218be5ab885aef7fd9fa457f08dd44d1f6b65d4af2ead"
    ),
}


def _short_spec(name: str, horizon: int) -> ScenarioSpec:
    """A registered scenario truncated for test speed (quick base)."""
    return dataclasses.replace(
        get_scenario(name), base="quick", horizon_intervals=horizon
    )


def _run_with_obs(spec: ScenarioSpec, **obs):
    """Run ``spec`` with telemetry armed; returns (system, result)."""
    spec = dataclasses.replace(spec, obs={"enabled": True, **obs})
    cfg = spec.to_config()
    system = spec.build(cfg, trace_records=False)
    until = None
    if spec.horizon_intervals is not None:
        until = spec.horizon_intervals * cfg.interval_us
    return system, system.run(until_us=until)


class TestFingerprintEquivalence:
    """Telemetry on vs off: bit-identical simulation results."""

    def test_fig4_single_vm(self):
        spec = _short_spec("fig4_single_vm", horizon=6)
        baseline = spec.run()
        _, observed = _run_with_obs(spec, metrics=True, trace=True)
        assert stats_fingerprint(observed) == stats_fingerprint(baseline)
        assert observed.events_processed == baseline.events_processed

    def test_churn_consolidated(self):
        spec = _short_spec("churn_consolidated", horizon=10)
        baseline = spec.run()
        system, observed = _run_with_obs(spec, metrics=True, trace=True)
        assert stats_fingerprint(observed) == stats_fingerprint(baseline)
        assert observed.events_processed == baseline.events_processed
        # The multi-tenant snapshot path: slosteal wires a quota
        # allocator and an SLO monitor, both sampled per interval.
        last = system.telemetry.hub.series[-1]
        assert last["tenants"]
        assert any("quota" in entry for entry in last["tenants"].values())
        assert "tenants" in last["slo"]

    def test_live_counters_visible_mid_run(self):
        # The heartbeat reads events_processed while the run is going;
        # the count includes the callback that reads it.
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [2]


class TestMetricsSeries:
    def test_deterministic_after_strip_wall(self):
        spec = _short_spec("fig4_single_vm", horizon=5)
        sys_a, _ = _run_with_obs(spec, metrics=True)
        sys_b, _ = _run_with_obs(spec, metrics=True)
        rows_a = [strip_wall(r) for r in sys_a.telemetry.hub.series]
        rows_b = [strip_wall(r) for r in sys_b.telemetry.hub.series]
        assert rows_a and rows_a == rows_b

    def test_row_shape_and_jsonl_round_trip(self):
        spec = _short_spec("fig4_single_vm", horizon=4)
        system, result = _run_with_obs(spec, metrics=True)
        telemetry = system.telemetry
        rows = telemetry.hub.series
        assert len(rows) == 4
        for row in rows:
            assert set(row) >= {
                "interval", "t_us", "events", "events_total", "completed",
                "queues", "cache", "tenants", "slo", "wall",
            }
            assert set(row["queues"]) == {"ssd", "hdd"}
            assert 0.0 <= row["cache"]["dirty_ratio"] <= 1.0
            assert row["wall"]["s"] >= 0.0
        assert rows[-1]["events_total"] <= result.events_processed
        parsed = [
            json.loads(line) for line in telemetry.metrics_jsonl().splitlines()
        ]
        assert parsed == [json.loads(json.dumps(r)) for r in rows]

    def test_hub_summary_instruments(self):
        spec = _short_spec("fig4_single_vm", horizon=3)
        system, result = _run_with_obs(spec, metrics=True)
        summary = system.telemetry.hub.summary()
        assert summary["counters"]["intervals"] == 3
        assert 0.0 <= summary["gauges"]["read_hit_ratio"] <= 1.0
        latency = summary["histograms"]["request_latency_us"]
        assert latency["count"] == result.completed
        assert latency["min"] <= latency["mean"] <= latency["max"]


class TestTraceExport:
    def test_chrome_trace_schema(self):
        spec = _short_spec("fig4_single_vm", horizon=4)
        system, _ = _run_with_obs(spec, metrics=False, trace=True)
        doc = json.loads(system.telemetry.spans.chrome_trace_json())
        events = doc["traceEvents"]
        assert events
        for event in events:
            for field in TRACE_REQUIRED_FIELDS:
                assert field in event, f"missing {field!r} in {event}"
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}
        assert doc["otherData"]["dropped_spans"] == 0
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"requests", "ssd", "hdd"}

    def test_request_spans_carry_attribution(self):
        spec = _short_spec("fig4_single_vm", horizon=4)
        system, result = _run_with_obs(spec, metrics=False, trace=True)
        requests = [
            e
            for e in system.telemetry.spans.events
            if e["pid"] == 1 and e["ph"] == "X"
        ]
        assert len(requests) == result.completed
        for span in requests:
            assert span["dur"] >= 0
            args = span["args"]
            assert {"tenant", "hit", "bypassed", "served_by"} <= set(args)

    def test_tail_bypass_spans_name_both_devices(self):
        # mail under lbica moves the SSD queue's tail to the disk: every
        # bypassed request was queued at the SSD and served by the HDD.
        spec = ScenarioSpec(name="mail/lbica", workload="mail", base="quick")
        system, result = _run_with_obs(spec, metrics=False, trace=True)
        events = system.telemetry.spans.events
        requests = [e["args"] for e in events if e["pid"] == 1]
        bypassed = [args for args in requests if args["bypassed"]]
        assert len(requests) == result.completed
        assert len(bypassed) == result.bypassed_requests > 0
        for args in bypassed:
            assert args["served_by"] == ["hdd", "ssd"] and not args["hit"]

    def test_queue_notes_stay_bounded(self):
        # Merged ops and cancelled promotions never complete on their
        # own; each iostat tick keeps only the notes of waiting ops.
        spec = ScenarioSpec(name="x", workload="mail", scheme="sib", base="quick")
        system, _ = _run_with_obs(spec, metrics=False, trace=True)
        assert system.controller.stats.promotes_cancelled > 0
        assert system.ssd.queue.stats.merged > 0
        devices = (system.ssd, system.hdd)
        waiting = {op for device in devices for op in device.queue.pending}
        assert set(system.telemetry._queued) == waiting

    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
    def test_trace_bytes_are_pinned(self, name, tmp_path):
        workload, scheme = name.split("/")
        spec = ScenarioSpec(name=name, workload=workload, scheme=scheme, base="quick")
        system, _ = _run_with_obs(spec, metrics=False, trace=True)
        written = system.telemetry.write_trace(tmp_path / "trace.json")
        assert hashlib.sha256(written.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

    def test_span_tracer_capacity_and_drops(self):
        tracer = SpanTracer(capacity=2)
        for i in range(5):
            tracer.emit(f"op{i}", "test", float(i), 1.0, 1, 0)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.chrome_trace()["otherData"]["dropped_spans"] == 3

    def test_write_trace_requires_tracing(self, tmp_path):
        spec = _short_spec("fig4_single_vm", horizon=2)
        system, _ = _run_with_obs(spec, metrics=True)
        with pytest.raises(ValueError, match="trace"):
            system.telemetry.write_trace(tmp_path / "trace.json")


class TestHubUnits:
    def test_histogram_buckets_and_stats(self):
        hist = Histogram()
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(26.625)
        # values <= 1 share bucket 0; 5 -> ceil(log2 5) = 3; 100 -> 7
        assert hist.as_dict()["buckets"] == {"0": 2, "3": 1, "7": 1}

    def test_hub_instruments(self):
        hub = MetricsHub()
        hub.inc("n")
        hub.inc("n", 2.0)
        hub.set_gauge("g", 0.25)
        hub.observe("h", 3.0)
        summary = hub.summary()
        assert summary["counters"] == {"n": 3.0}
        assert summary["gauges"] == {"g": 0.25}
        assert summary["histograms"]["h"]["count"] == 1

    def test_strip_wall_is_deep_and_non_mutating(self):
        row = {
            "wall": {"s": 1.0},
            "keep": [{"wall": {"s": 2.0}, "x": 1}],
            "nested": {"wall": 3.0, "y": 2},
        }
        stripped = strip_wall(row)
        assert stripped == {"keep": [{"x": 1}], "nested": {"y": 2}}
        assert "wall" in row and "wall" in row["keep"][0]


class TestObsConfig:
    def test_defaults_are_fully_off(self):
        cfg = SystemConfig()
        assert cfg.obs == ObsConfig()
        assert not cfg.obs.enabled
        cfg.validate()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"trace_capacity": 0}, "trace_capacity"),
            ({"heartbeat_s": -1.0}, "heartbeat_s"),
            ({"enabled": True, "metrics": False, "trace": False}, "records nothing"),
        ],
    )
    def test_validate_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ObsConfig(**kwargs).validate()

    def test_system_config_validates_obs(self):
        cfg = dataclasses.replace(
            SystemConfig(), obs=ObsConfig(trace_capacity=0)
        )
        with pytest.raises(ValueError, match="trace_capacity"):
            cfg.validate()


class TestSpecObsBlock:
    def test_to_dict_omits_empty_obs(self):
        spec = get_scenario("fig4_single_vm")
        assert "obs" not in spec.to_dict()

    def test_round_trip_and_config_mapping(self):
        spec = dataclasses.replace(
            get_scenario("fig4_single_vm"),
            obs={"enabled": True, "trace": True, "trace_capacity": 99},
        )
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt.obs == spec.obs
        cfg = rebuilt.to_config()
        assert cfg.obs.enabled and cfg.obs.trace
        assert cfg.obs.trace_capacity == 99

    def test_obs_must_be_a_mapping(self):
        spec = dataclasses.replace(get_scenario("fig4_single_vm"), obs=[1])
        with pytest.raises(ScenarioError, match="obs"):
            spec.validate()

    def test_unknown_obs_key_rejected(self):
        spec = dataclasses.replace(
            get_scenario("fig4_single_vm"), obs={"enabled": True, "nope": 1}
        )
        with pytest.raises(ScenarioError, match="nope"):
            spec.to_config()


class TestArtifactAndPerfCounters:
    def test_artifact_round_trips_telemetry(self):
        spec = dataclasses.replace(
            _short_spec("fig4_single_vm", horizon=3),
            obs={"enabled": True, "metrics": True, "trace": True},
        )
        cfg = spec.to_config()
        system = spec.build(cfg, trace_records=False)
        result = system.run(until_us=spec.horizon_intervals * cfg.interval_us)
        assert set(result.telemetry) == {"wall", "metrics", "trace"}
        artifact = RunArtifact.from_result(spec, result, config=cfg)
        rebuilt = RunArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )
        assert rebuilt.telemetry == artifact.telemetry
        assert rebuilt.telemetry["trace"]["events"] > 0

    def test_untelemetered_artifact_has_empty_section(self):
        spec = _short_spec("fig4_single_vm", horizon=2)
        result = spec.run()
        assert result.telemetry == {}
        artifact = RunArtifact.from_result(spec, result)
        assert artifact.telemetry == {}
        assert "telemetry" in artifact.to_dict()

    def test_perf_counters_always_include_trace_totals(self):
        spec = _short_spec("fig4_single_vm", horizon=2)
        result = spec.run()
        assert set(result.perf_counters) == {
            "trace_records", "trace_dropped", "trace_record_events",
        }
        untimed = run_perf_counters(result, None)
        assert untimed == result.perf_counters
        timed = run_perf_counters(result, 0.5)
        assert set(timed) > set(untimed)
        assert timed["trace_dropped"] == result.perf_counters["trace_dropped"]
        assert timed["events_processed"] == result.events_processed


class TestObsCli:
    def test_record_writes_metrics_and_trace(self, tmp_path, capsys):
        out = tmp_path / "obs_out"
        rc = obs_main(
            [
                "record", "fig4_single_vm", "--quick", "--horizon", "4",
                "--trace", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [
            json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 4
        doc = json.loads((out / "trace.json").read_text())
        assert all(
            all(field in event for field in TRACE_REQUIRED_FIELDS)
            for event in doc["traceEvents"]
        )
        assert "[obs] fig4_single_vm" in capsys.readouterr().out

    def test_summary_of_metrics_jsonl(self, tmp_path, capsys):
        out = tmp_path / "obs_out"
        assert obs_main(
            ["record", "fig4_single_vm", "--quick", "--horizon", "3",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert obs_main(["summary", str(out / "metrics.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "intervals: 3" in text
        assert "final read hit ratio" in text

    def test_summary_without_telemetry_fails(self, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"fingerprint": {}}))
        assert obs_main(["summary", str(path)]) == 1
        assert "no 'telemetry' section" in capsys.readouterr().err

    def test_export_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = obs_main(
            ["export-trace", "fig4_single_vm", "--quick", "--horizon", "3",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_unknown_scenario_exits_2(self, capsys):
        assert obs_main(["record", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_record_heartbeat_prints_progress(self, tmp_path, capsys):
        rc = obs_main(
            [
                "record", "fig4_single_vm", "--quick", "--horizon", "3",
                "--heartbeat", "0.0000001", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "[obs] sim" in err and "ev/s" in err


class TestCampaignHeartbeatAndStatus:
    def _tiny_campaign(self) -> CampaignSpec:
        return CampaignSpec(
            name="tiny-obs",
            scenarios=[
                {
                    "name": "obs_web",
                    "workload": "web",
                    "base": "quick",
                    "horizon_intervals": 2,
                }
            ],
        )

    def test_status_reports_wall_time_and_throughput(self, tmp_path):
        store = RunStore(tmp_path / "store")
        campaign = self._tiny_campaign()
        run_campaign(campaign, store, verbose=False, heartbeat_s=0.001)
        statuses = campaign_status(campaign, store)
        assert [s.state for s in statuses] == ["stored"]
        assert statuses[0].wall_s is not None and statuses[0].wall_s >= 0
        assert statuses[0].events_per_sec is not None
        table = status_table(statuses)
        assert "wall s" in table and "events/s" in table

    def test_status_table_dashes_for_missing_perf(self):
        table = status_table(
            [
                ScenarioStatus(
                    name="x", workload="web", scheme="wb",
                    digest="d" * 12, state="missing",
                )
            ]
        )
        row = table.splitlines()[-1]
        assert row.count("-") >= 2

    def test_cli_rejects_negative_heartbeat(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self._tiny_campaign().to_dict()))
        rc = campaign_main(
            [
                "run", str(path),
                "--store", str(tmp_path / "store"),
                "--heartbeat", "-1",
            ]
        )
        assert rc == 2
        assert "heartbeat" in capsys.readouterr().err
