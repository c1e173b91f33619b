"""Integration tests: the wired system, runner, and scheme behaviours."""

import gc

import pytest

from repro.cache.write_policy import WritePolicy
from repro.config import paper_config, quick_config
from repro.experiments.runner import ExperimentRunner
from repro.experiments.system import SCHEMES, WORKLOADS, ExperimentSystem


class TestNoCyclicGarbage:
    """A run leaves nothing for the cyclic collector to find.

    Every object a run allocates should be freed by reference counting
    alone, so the collector has no work to do in the event loop.  The
    test pauses the collector for the whole run, so any reference cycle
    made during it survives to the end, where it must not exist.
    """

    @staticmethod
    def _garbage_after_run(workload, scheme, horizon_intervals=None):
        config = paper_config(1)
        until = None
        if horizon_intervals is not None:
            until = horizon_intervals * config.interval_us
        gc.collect()
        gc.disable()
        try:
            system = ExperimentSystem.build(
                workload, scheme, config, trace_records=False
            )
            result = system.run(until_us=until)
            assert result.completed > 0
            return gc.collect()
        finally:
            gc.enable()

    def test_tpcc_lbica_run(self):
        assert self._garbage_after_run("tpcc", "lbica") == 0

    def test_short_consolidated3_dynshare_run(self):
        garbage = self._garbage_after_run(
            "consolidated3", "dynshare", horizon_intervals=40
        )
        assert garbage == 0


@pytest.fixture(scope="module")
def quick_runner():
    """A module-scoped memoizing runner on the quick configuration."""
    return ExperimentRunner(quick_config())


class TestBuild:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSystem.build("nope", "wb", quick_config())

    def test_unknown_scheme_rejected(self):
        wl = WORKLOADS["tpcc"](15_000.0, cache_blocks=64, rate_scale=1.0, max_outstanding=8)
        with pytest.raises(ValueError):
            ExperimentSystem(wl, "nope", quick_config())

    def test_all_registered_combinations_construct(self):
        cfg = quick_config()
        for workload in ("tpcc", "mail", "web"):
            for scheme in SCHEMES:
                ExperimentSystem.build(workload, scheme, cfg)

    def test_warm_cache_populates_store(self):
        system = ExperimentSystem.build("tpcc", "wb", quick_config())
        count = system.warm_cache()
        assert count > 0
        assert system.store.occupied > 0


class TestRunResults:
    def test_wb_run_completes_requests(self, quick_runner):
        res = quick_runner.run("tpcc", "wb")
        assert res.completed > 1000
        assert res.mean_latency > 0
        assert len(res.samples) == 200  # TPC-C interval count
        assert res.cache_stats["read_hit_ratio"] > 0.9

    def test_lbica_assigns_wo_on_tpcc(self, quick_runner):
        res = quick_runner.run("tpcc", "lbica")
        policies = [p.policy for p in res.policy_log]
        assert policies[0] is WritePolicy.WB
        assert WritePolicy.WO in policies

    def test_lbica_mail_policy_story(self, quick_runner):
        res = quick_runner.run("mail", "lbica")
        policies = [p.policy.value for p in res.policy_log]
        # the paper's sequence must appear in order: RO then WO then WB
        assert policies[0] == "WB"
        seq = [p for p in policies[1:] if p in ("RO", "WO", "WB")]
        joined = "".join(seq)
        assert "RO" in seq
        assert joined.find("RO") < joined.find("WO") < joined.rfind("WB")

    def test_lbica_web_assigns_ro(self, quick_runner):
        res = quick_runner.run("web", "lbica")
        assigned = [p.policy for p in res.policy_log[1:]]
        assert assigned and assigned[0] is WritePolicy.RO

    def test_sib_runs_and_bypasses(self, quick_runner):
        res = quick_runner.run("mail", "sib")
        assert res.scheme_stats["rounds"] > 0
        assert res.scheme_stats["overhead_us"] > 0

    def test_latency_ordering_wb_sib_lbica(self, quick_runner):
        for workload in ("tpcc", "mail", "web"):
            wb = quick_runner.run(workload, "wb").mean_latency
            sib = quick_runner.run(workload, "sib").mean_latency
            lbica = quick_runner.run(workload, "lbica").mean_latency
            assert lbica < wb, workload
            assert lbica < sib, workload

    def test_cache_load_ordering(self, quick_runner):
        def mean(r):
            return sum(r.cache_load_series()) / len(r.samples)

        for workload in ("tpcc", "mail", "web"):
            wb = quick_runner.run(workload, "wb")
            lb = quick_runner.run(workload, "lbica")
            assert mean(lb) < mean(wb), workload

    def test_series_lengths_match_interval_counts(self, quick_runner):
        assert len(quick_runner.run("web", "wb").samples) == 175
        assert len(quick_runner.run("mail", "wb").samples) == 200

    def test_summary_is_readable(self, quick_runner):
        text = quick_runner.run("tpcc", "wb").summary()
        assert "tpcc/wb" in text and "requests" in text


class TestRunner:
    def test_memoization(self, quick_runner):
        a = quick_runner.run("tpcc", "wb")
        b = quick_runner.run("tpcc", "wb")
        assert a is b

    def test_invalidate_clears_cache(self):
        runner = ExperimentRunner(quick_config())
        a = runner.run("tpcc", "wb")
        runner.invalidate()
        b = runner.run("tpcc", "wb")
        assert a is not b

    def test_determinism_same_seed(self):
        r1 = ExperimentRunner(quick_config(seed=5)).run("web", "lbica")
        r2 = ExperimentRunner(quick_config(seed=5)).run("web", "lbica")
        assert r1.completed == r2.completed
        assert r1.mean_latency == pytest.approx(r2.mean_latency)
        assert r1.cache_load_series() == r2.cache_load_series()

    def test_different_seeds_differ(self):
        r1 = ExperimentRunner(quick_config(seed=5)).run("web", "wb")
        r2 = ExperimentRunner(quick_config(seed=6)).run("web", "wb")
        assert r1.mean_latency != pytest.approx(r2.mean_latency)
