"""Multi-VM composition, per-tenant accounting, and the parallel grid."""

import pytest

from repro.config import quick_config
from repro.experiments.runner import ExperimentRunner, run_grid
from repro.experiments.system import (
    ExperimentSystem,
    WORKLOADS,
    register_consolidation,
)
from repro.io.request import Request
from repro.workloads.multi_tenant import (
    MultiTenantWorkload,
    TenantSpec,
    consolidated3_workload,
)
from repro.workloads.web import web_server_workload


@pytest.fixture(scope="module")
def consolidated_result():
    """One consolidated3/wb quick run, shared across accounting tests."""
    return ExperimentRunner(quick_config()).run("consolidated3", "wb")


class TestComposition:
    def test_registered_scenarios_present(self):
        assert "consolidated3" in WORKLOADS
        assert "bootstorm_neighbors" in WORKLOADS

    def test_compose_builds_tenants(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        assert wl.tenant_count == 3
        assert wl.name == "consolidated3"
        assert [c.name for c in wl.children] == ["tpcc", "mail", "web"]

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            MultiTenantWorkload("x", [], lba_stride_blocks=1024)

    def test_nested_composition_rejected(self):
        inner = consolidated3_workload(15_000.0, cache_blocks=1024)
        with pytest.raises(ValueError):
            MultiTenantWorkload("x", [inner], lba_stride_blocks=1024)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            TenantSpec(web_server_workload, rate_scale=0.0).validate()
        with pytest.raises(ValueError):
            TenantSpec(web_server_workload, offset_intervals=-1).validate()

    def test_warm_blocks_disjoint_across_tenants(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        stride = wl.lba_stride_blocks
        regions = [
            set(range(tid * stride, (tid + 1) * stride))
            for tid in range(wl.tenant_count)
        ]
        warm = wl.warm_blocks + wl.warm_dirty_blocks
        for lba in warm:
            owners = [tid for tid, region in enumerate(regions) if lba in region]
            assert len(owners) == 1, f"warm block {lba} not in exactly one region"

    def test_phase_offset_shifts_duration(self):
        base = web_server_workload(15_000.0, cache_blocks=512)
        shifted = web_server_workload(15_000.0, cache_blocks=512)
        wl = MultiTenantWorkload(
            "pair",
            [base, shifted],
            lba_stride_blocks=512 * 256,
            offsets_us=[0.0, 10 * 15_000.0],
        )
        assert wl.duration_us == base.duration_us + 10 * 15_000.0

    def test_burst_intervals_offset_adjusted(self):
        a = web_server_workload(15_000.0, cache_blocks=512)
        b = web_server_workload(15_000.0, cache_blocks=512)
        wl = MultiTenantWorkload(
            "pair",
            [a, b],
            lba_stride_blocks=512 * 256,
            offsets_us=[0.0, 7 * 15_000.0],
        )
        bursts = set(wl.burst_intervals())
        assert set(a.burst_intervals()).issubset(bursts)
        assert all(i + 7 in bursts for i in b.burst_intervals())


class TestPerTenantAccounting:
    def test_tenants_observed(self, consolidated_result):
        assert consolidated_result.tenant_ids == [0, 1, 2]

    def test_tenant_completions_sum_to_aggregate(self, consolidated_result):
        res = consolidated_result
        assert sum(ts["completed"] for ts in res.tenant_stats.values()) == res.completed

    def test_tenant_latencies_sum_to_aggregate(self, consolidated_result):
        res = consolidated_result
        stats = res.tenant_stats.values()
        assert sum(ts["completed"] for ts in stats) == len(res.latencies)
        assert max(ts["max_latency"] for ts in stats) == max(res.latencies)
        assert all(ts["max_latency"] > 0 for ts in stats)

    def test_tenant_bypassed_sum_to_aggregate(self, consolidated_result):
        res = consolidated_result
        assert (
            sum(ts["bypassed"] for ts in res.tenant_stats.values())
            == res.bypassed_requests
        )

    def test_interval_samples_carry_tenant_breakdown(self, consolidated_result):
        samples = consolidated_result.samples
        assert sum(s.completed for s in samples) == sum(
            sum(s.tenant_completed.values()) for s in samples
        )
        busy = [s for s in samples if s.completed]
        assert busy and all(s.tenant_completed for s in busy)

    def test_single_tenant_run_uses_tenant_zero(self):
        res = ExperimentRunner(quick_config()).run("web", "wb")
        assert res.tenant_ids == [0]
        assert res.tenant_stats[0]["completed"] == res.completed

    def test_summary_and_table_mention_vms(self, consolidated_result):
        assert "vm0" in consolidated_result.summary()
        table = consolidated_result.tenant_table()
        assert "hit ratio" in table and table.count("\n") == 3

    def test_two_identical_vms_get_symmetric_latencies(self):
        cfg = quick_config()
        wl = MultiTenantWorkload.compose(
            "twins",
            [TenantSpec(web_server_workload), TenantSpec(web_server_workload)],
            cfg.interval_us,
            cache_blocks=cfg.cache_blocks,
            max_outstanding=cfg.max_outstanding,
        )
        res = ExperimentSystem(wl, "wb", cfg).run()
        assert res.tenant_ids == [0, 1]
        m0 = res.tenant_stats[0]["mean_latency"]
        m1 = res.tenant_stats[1]["mean_latency"]
        assert m0 > 0 and m1 > 0
        # identical scripts on a fair-shared cache: means agree within 25%
        assert abs(m0 - m1) / max(m0, m1) < 0.25
        c0 = res.tenant_stats[0]["completed"]
        c1 = res.tenant_stats[1]["completed"]
        assert abs(c0 - c1) / max(c0, c1) < 0.25


class TestTenantStatsLookup:
    """``tenant_stats`` must raise for an id the composition never had —
    fabricating an empty entry silently mislabels analysis code — while
    a departed tenant's id stays valid with its pre-departure counters."""

    def test_full_map_without_argument(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        stats = wl.tenant_stats()
        assert sorted(stats) == [0, 1, 2]

    def test_never_existent_tenant_raises(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        with pytest.raises(KeyError, match="tenants 0..2"):
            wl.tenant_stats(3)
        with pytest.raises(KeyError):
            wl.tenant_stats(-1)

    def test_single_tenant_lookup_matches_map(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        assert wl.tenant_stats(1) is wl.tenant_stats()[1]

    def test_departed_tenant_stats_stay_readable(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        wl.stop_tenant(2)
        stats = wl.tenant_stats(2)
        assert stats.finished
        assert wl.tenant_stats(2) is wl.children[2].stats

    def test_service_lookups_check_tenant_ids_too(self):
        wl = consolidated3_workload(15_000.0, cache_blocks=1024)
        with pytest.raises(KeyError):
            wl.tenant_region(7)
        with pytest.raises(KeyError):
            wl.tenant_warm_blocks(7)
        with pytest.raises(KeyError):
            wl.stop_tenant(7)
        lo, hi = wl.tenant_region(1)
        assert (lo, hi) == (wl.lba_stride_blocks, 2 * wl.lba_stride_blocks)


class TestConsolidatedScenarios:
    def test_lbica_beats_wb_on_consolidated3(self, consolidated_result):
        lbica = ExperimentRunner(quick_config()).run("consolidated3", "lbica")
        assert lbica.mean_latency < consolidated_result.mean_latency

    def test_bootstorm_neighbors_runs(self):
        res = ExperimentRunner(quick_config()).run("bootstorm_neighbors", "wb")
        assert res.tenant_ids == [0, 1]
        assert all(ts["completed"] > 0 for ts in res.tenant_stats.values())

    def test_register_consolidation(self):
        name = register_consolidation(["web", "web"])
        assert name in WORKLOADS
        wl = WORKLOADS[name](15_000.0, 1024, 1.0, 64)
        assert wl.tenant_count == 2
        # idempotent re-registration
        assert register_consolidation(["web", "web"]) == name

    def test_register_consolidation_unknown_rejected(self):
        with pytest.raises(ValueError):
            register_consolidation(["nope"])
        with pytest.raises(ValueError):
            register_consolidation([])

    def test_register_consolidation_rejects_multi_tenant_names(self):
        # nesting must fail at registration time, not mid-figure
        with pytest.raises(ValueError):
            register_consolidation(["consolidated3", "web"])
        name = register_consolidation(["web", "tpcc"])
        with pytest.raises(ValueError):
            register_consolidation([name])

    def test_build_rebuilds_vms_names_from_cold_registry(self):
        """A spawn-started worker never saw the parent's registration;
        the self-describing vms: name must rebuild it."""
        name = register_consolidation(["tpcc", "web"])
        WORKLOADS.pop(name)  # simulate a fresh process's registry
        system = ExperimentSystem.build(name, "wb", quick_config())
        assert system.workload.tenant_count == 2
        assert name in WORKLOADS


class TestParallelGrid:
    def test_parallel_matches_serial(self):
        cfg = quick_config()
        serial = run_grid(
            workloads=("web",), schemes=("wb", "lbica"), config=cfg, max_workers=1
        )
        parallel = run_grid(
            workloads=("web",), schemes=("wb", "lbica"), config=cfg, max_workers=2
        )
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].summary() == parallel[key].summary()
            assert serial[key].latencies == parallel[key].latencies
            assert (
                serial[key].cache_load_series() == parallel[key].cache_load_series()
            )
            assert serial[key].tenant_stats == parallel[key].tenant_stats

    def test_parallel_populates_memo_cache(self):
        runner = ExperimentRunner(quick_config())
        grid = runner.run_many(("web",), ("wb", "sib"), max_workers=2)
        # a subsequent serial call returns the cached objects
        assert runner.run("web", "wb") is grid[("web", "wb")]

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(quick_config()).run_many(max_workers=0)


class TestRngDerivation:
    @staticmethod
    def _arrivals(n_tenants, seed, until_us=2_000.0):
        from repro.sim.engine import Simulator

        import numpy as np

        specs = [TenantSpec(web_server_workload) for _ in range(n_tenants)]
        wl = MultiTenantWorkload.compose(
            "twins", specs, 15_000.0, cache_blocks=512, max_outstanding=4096
        )
        sim = Simulator()
        arrivals: dict[int, list[float]] = {}
        wl.bind(
            sim,
            lambda r: arrivals.setdefault(r.tenant_id, []).append(r.arrival),
            np.random.default_rng(seed),
        )
        sim.run(until=until_us)
        return arrivals

    def test_reproducible_from_seed(self):
        assert self._arrivals(2, seed=9) == self._arrivals(2, seed=9)

    def test_tenants_draw_independent_streams(self):
        arrivals = self._arrivals(2, seed=9)
        assert arrivals[0] != arrivals[1]

    def test_appending_tenant_preserves_existing_streams(self):
        two = self._arrivals(2, seed=9)
        three = self._arrivals(3, seed=9)
        assert two[0] == three[0]
        assert two[1] == three[1]

    def test_draw_self_check_runs_at_bind(self, monkeypatch):
        """Tenants bind from scheduled events, so the once-per-process
        draw self-check runs in the composition's bind, before the event
        loop starts."""
        from repro.sim import fastdraw
        from repro.sim.engine import Simulator

        import numpy as np

        monkeypatch.setattr(fastdraw, "_verified", None)
        sim = Simulator()
        consolidated3_workload(15_000.0).bind(
            sim, lambda r: None, np.random.default_rng(1)
        )
        assert sim.events_processed == 0
        assert fastdraw._verified is not None


class TestRequestTenantId:
    def test_default_zero(self):
        assert Request(0.0, 0, 1, False).tenant_id == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, 0, 1, False, tenant_id=-1)
