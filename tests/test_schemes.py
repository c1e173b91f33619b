"""Tests for the pluggable scheme subsystem (``repro.schemes``).

The load-bearing guarantees:

1. the registry is the single source of scheme names (duplicates
   rejected, unknown names error with the registry named and the full
   list shown);
2. the wb/sib/lbica refactor behind the :class:`Scheme` ABC is
   **bit-identical** — pinned against the committed golden fingerprints
   the pre-refactor code produced;
3. the capacity-allocation schemes (``partition`` / ``dynshare``)
   actually partition: per-tenant accounted occupancy never exceeds the
   assigned quota, and both run the multi-VM scenario end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.sib import SibController
from repro.baselines.wb import WbBaseline
from repro.cache.store import CacheStore
from repro.config import quick_config
from repro.core.lbica import LbicaController
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheme_compare import generate_scheme_compare
from repro.experiments.system import SCHEMES, ExperimentSystem
from repro.scenario import ScenarioError, ScenarioSpec, stats_fingerprint
from repro.schemes import (
    DynamicShareScheme,
    QuotaAllocator,
    Scheme,
    StaticPartitionScheme,
    get_scheme,
    paper_schemes,
    register_scheme,
    scheme_descriptions,
    scheme_names,
)
from repro.schemes.allocation import fair_shares, proportional_shares
from repro.schemes.dynshare import DynShareConfig
from repro.schemes.partition import PartitionConfig
from repro.schemes.slosteal import SloStealConfig, SloStealScheme

_REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (_REPO / "benchmarks" / "golden" / "suite_quick.json").read_text()
)
SCHEMES_GOLDEN = json.loads(
    (_REPO / "benchmarks" / "golden" / "schemes_quick.json").read_text()
)


def _normalized(stats: dict) -> dict:
    return json.loads(json.dumps(stats, sort_keys=True))


class TestRegistry:
    def test_builtin_names_and_order(self):
        assert scheme_names() == (
            "wb",
            "sib",
            "lbica",
            "partition",
            "dynshare",
            "slosteal",
        )
        assert paper_schemes() == ("wb", "sib", "lbica")
        assert SCHEMES == ("wb", "sib", "lbica")

    def test_get_scheme_resolves_builtins(self):
        assert get_scheme("wb") is WbBaseline
        assert get_scheme("sib") is SibController
        assert get_scheme("lbica") is LbicaController
        assert get_scheme("partition") is StaticPartitionScheme
        assert get_scheme("dynshare") is DynamicShareScheme
        assert get_scheme("slosteal") is SloStealScheme

    def test_unknown_scheme_names_registry_and_lists_entries(self):
        with pytest.raises(ValueError) as err:
            get_scheme("bogus")
        message = str(err.value)
        assert "repro.schemes.registry" in message
        for name in scheme_names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        class FreshScheme(Scheme):
            name = "fresh-test-scheme"

            def start(self):
                pass

        register_scheme(FreshScheme)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme(FreshScheme)
        finally:
            from repro.schemes.registry import _SCHEMES

            _SCHEMES.table.pop("fresh-test-scheme", None)

    def test_register_rejects_nameless_and_non_schemes(self):
        class Nameless(Scheme):
            name = ""

        with pytest.raises(ValueError):
            register_scheme(Nameless)
        with pytest.raises(TypeError):
            register_scheme(object)

    def test_descriptions_cover_every_scheme(self):
        descriptions = scheme_descriptions()
        assert set(descriptions) == set(scheme_names())
        assert all(
            text and text != "(no description)" for text in descriptions.values()
        )

    def test_experiment_system_error_names_registry(self):
        with pytest.raises(ValueError, match="repro.schemes.registry"):
            ExperimentSystem.build("tpcc", "bogus", quick_config())

    def test_scenario_spec_error_names_registry(self):
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_dict({"name": "x", "scheme": "bogus"})
        assert "repro.schemes.registry" in str(err.value)
        assert "partition" in str(err.value)


class TestGoldenPin:
    """The registry refactor must not perturb the paper trio by one bit."""

    @pytest.mark.parametrize("scheme", ["wb", "sib", "lbica"])
    def test_trio_matches_pre_refactor_goldens(self, scheme):
        # The committed grid_fanout fingerprints were produced by the
        # pre-registry if/elif construction; the registry-built systems
        # must reproduce them exactly.
        runner = ExperimentRunner(quick_config(GOLDEN["seed"]))
        result = runner.run("tpcc", scheme)
        golden = GOLDEN["scenarios"]["grid_fanout"][f"tpcc/{scheme}"]
        assert _normalized(stats_fingerprint(result)) == golden

    @pytest.mark.parametrize("scheme", ["partition", "dynshare"])
    def test_new_schemes_match_their_goldens(self, scheme):
        spec = ScenarioSpec(
            name="t", workload="consolidated3", scheme=scheme, base="quick"
        )
        fingerprint = _normalized(stats_fingerprint(spec.run()))
        golden = SCHEMES_GOLDEN["scenarios"][f"scheme_matrix[scheme={scheme}]"]
        assert fingerprint == golden


class TestQuotaAllocator:
    def test_admit_until_quota_then_deny(self, store):
        # no recyclable residents (nothing in the store): at quota the
        # admission is denied outright
        allocator = QuotaAllocator(store, default_quota_blocks=2)
        assert allocator.admit(0, 1)
        allocator.note_insert(0, 1)
        assert allocator.admit(0, 2)
        allocator.note_insert(0, 2)
        assert not allocator.admit(0, 3)
        assert allocator.denied == {0: 1}

    def test_resident_blocks_always_admitted(self, store):
        allocator = QuotaAllocator(store, default_quota_blocks=1)
        store.insert(7, 0.0)
        allocator.note_insert(0, 7)
        # at quota, but lba 7 is resident: rewriting it grows nothing
        assert allocator.admit(0, 7)
        assert allocator.recycled == {}

    def test_at_quota_recycles_own_oldest_clean_block(self, store):
        allocator = QuotaAllocator(store, default_quota_blocks=2)
        for lba in (7, 9):
            store.insert(lba, 0.0)
            allocator.note_insert(0, lba)
        # at quota with clean residents: the oldest (7) is recycled so
        # the cache never freezes at saturation
        assert allocator.admit(0, 11)
        assert store.peek(7) is None
        assert store.peek(9) is not None
        assert allocator.recycled == {0: 1}
        assert allocator.occupancy() == {0: 1}
        assert allocator.denied == {}

    def test_all_dirty_share_is_denied(self, store):
        allocator = QuotaAllocator(store, default_quota_blocks=2)
        for lba in (7, 9):
            store.insert(lba, 0.0, dirty=True)
            allocator.note_insert(0, lba)
        # every owned block is dirty: nothing recyclable, denial counted
        assert not allocator.admit(0, 11)
        assert allocator.denied == {0: 1}
        # the flusher marking one clean unblocks the tenant again
        store.mark_clean(7)
        assert allocator.admit(0, 11)
        assert allocator.recycled == {0: 1}

    @staticmethod
    def _all_dirty_tenant(quota, owned, clean=()):
        """Tenant 0 owning ``owned`` blocks, all dirty except ``clean``.

        A 256-way store keeps every block resident; the default scan
        covers the oldest 64 owned blocks.
        """
        store = CacheStore(256, associativity=256)
        allocator = QuotaAllocator(store, default_quota_blocks=quota)
        for lba in range(owned):
            store.insert(lba, 0.0, dirty=lba not in clean)
            allocator.note_insert(0, lba)
        return store, allocator

    def test_repeated_denials_scan_once(self, monkeypatch):
        # With nothing changing, a futile scan is not repeated: 100
        # denied admissions make one first_clean call, not 100.
        store, allocator = self._all_dirty_tenant(quota=64, owned=64)
        calls = []
        scan = store.first_clean

        def counted_scan(lbas, limit):
            calls.append(limit)
            return scan(lbas, limit)

        monkeypatch.setattr(store, "first_clean", counted_scan)
        for lba in range(1000, 1100):
            assert not allocator.admit(0, lba)
        assert calls == [64]
        assert allocator.denied == {0: 100} and allocator.recycled == {}

    def test_mark_clean_ends_a_futile_scan_record(self):
        store, allocator = self._all_dirty_tenant(quota=64, owned=64)
        assert not allocator.admit(0, 1000)
        store.mark_clean(40)
        assert allocator.admit(0, 1000)
        assert store.peek(40) is None and allocator.recycled == {0: 1}

    def test_owned_set_changes_end_a_futile_scan_record(self):
        # Block 64 is clean but outside the 64-block scan window; above
        # quota, a removal from the window moves it in.
        store, allocator = self._all_dirty_tenant(quota=60, owned=65, clean={64})
        assert not allocator.admit(0, 1000)
        store.invalidate(3)
        allocator.note_remove(3)
        assert allocator.admit(0, 1000)
        assert store.peek(64) is None and allocator.recycled == {0: 1}
        # Under 64 owned blocks, a newly owned clean block lands in the
        # window: an ownerless resident block the tenant re-inserts.
        store, allocator = self._all_dirty_tenant(quota=3, owned=3)
        store.insert(50, 0.0)
        assert not allocator.admit(0, 1000)
        allocator.note_insert(0, 50)
        assert allocator.admit(0, 1000)
        assert store.peek(50) is None and allocator.recycled == {0: 1}

    def test_remove_frees_quota(self, store):
        allocator = QuotaAllocator(store, default_quota_blocks=1)
        allocator.note_insert(0, 1)
        assert not allocator.admit(0, 2)
        allocator.note_remove(1)
        assert allocator.admit(0, 2)
        allocator.note_remove(999)  # unknown blocks are ignored
        assert allocator.occupancy() == {0: 0}

    def test_per_tenant_isolation(self, store):
        allocator = QuotaAllocator(store, default_quota_blocks=1)
        allocator.set_quota(1, 4)
        allocator.note_insert(0, 1)
        assert not allocator.admit(0, 2)
        assert allocator.admit(1, 100)
        assert allocator.quota_for(1) == 4

    def test_share_helpers(self):
        assert fair_shares(4096, 4, 64) == {0: 1024, 1: 1024, 2: 1024, 3: 1024}
        shares = proportional_shares(4096, 3, [2.0], 64)
        assert shares[0] == 2048 and shares[1] == shares[2] == 1024
        with pytest.raises(ValueError):
            proportional_shares(4096, 2, [0.0], 64)


class TestAttachDetach:
    def test_partition_attach_installs_allocator(self):
        system = ExperimentSystem.build(
            "consolidated3", "partition", quick_config()
        )
        scheme = system.balancer
        assert isinstance(scheme, StaticPartitionScheme)
        assert system.controller.allocator is scheme.allocator
        assert set(scheme.shares) == {0, 1, 2}
        scheme.detach()
        assert system.controller.allocator is None
        scheme.detach()  # idempotent

    def test_double_attach_rejected(self):
        system = ExperimentSystem.build("consolidated3", "dynshare", quick_config())
        with pytest.raises(RuntimeError, match="already attached"):
            system.balancer.attach(system)

    def test_trio_schemes_attached_to_system(self):
        # Every registered scheme is built the same way, cls(config)
        # then attach; only the capacity schemes install an allocator.
        for name in scheme_names():
            system = ExperimentSystem.build("tpcc", name, quick_config())
            scheme = system.balancer
            assert type(scheme) is get_scheme(name)
            assert scheme.system is system
            field = scheme.config_field
            assert scheme.config is (getattr(system.config, field) if field else None)
            expected = getattr(scheme, "allocator", None)
            assert system.controller.allocator is expected
            assert (expected is None) == scheme.paper_baseline


class TestPartitionScheme:
    def test_proportional_weights_from_scenario_json(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "weighted",
                "workload": "consolidated3",
                "scheme": "partition",
                "base": "quick",
                "system": {
                    "partition": {
                        "variant": "proportional",
                        "weights": [2, 1, 1],
                        "min_share_blocks": 128,
                    }
                },
            }
        )
        system = spec.build()
        scheme = system.balancer
        assert scheme.config.variant == "proportional"
        assert scheme.shares[0] == 2 * scheme.shares[1]
        assert scheme.shares[1] == scheme.shares[2]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PartitionConfig(variant="nope").validate()
        with pytest.raises(ValueError):
            PartitionConfig(weights=[-1.0]).validate()
        with pytest.raises(ValueError):
            DynShareConfig(min_share_blocks=0).validate()
        with pytest.raises(ValueError):
            DynShareConfig(ewma=0.0).validate()

    def test_partition_vs_lbica_smoke_comparison(self):
        """Both schemes run the contended scenario; partitioning caps
        every tenant's accounted occupancy at its share."""
        systems, runs = {}, {}
        for scheme in ("partition", "lbica"):
            spec = ScenarioSpec(
                name=f"smoke_{scheme}",
                workload="consolidated3",
                scheme=scheme,
                base="quick",
                # a small cache forces real contention so admission
                # control actually engages
                system={"cache_blocks": 512},
            )
            systems[scheme] = spec.build()
            runs[scheme] = systems[scheme].run()

        system = systems["partition"]
        partition_result = runs["partition"]
        lbica_result = runs["lbica"]
        assert partition_result.completed > 0
        assert lbica_result.completed > 0

        scheme = system.balancer
        occupancy = scheme.allocator.occupancy()
        for tenant, count in occupancy.items():
            assert count <= scheme.shares[tenant], (tenant, count)
        # the small cache must have produced actual admission pressure:
        # at-quota tenants recycle within their share (or, with an
        # all-dirty share, are denied)
        pressure = scheme.allocator.total_recycled + scheme.allocator.total_denied
        assert pressure > 0
        # the scheme's timeline recorded the whole run
        assert partition_result.scheme_decisions
        stats = partition_result.scheme_stats
        assert stats["total_recycled"] + stats["total_denied"] > 0
        # lbica balances by policy/bypass instead: no allocator installed
        assert lbica_result.scheme_stats["decisions"] > 0


class TestDynamicShareScheme:
    def test_reallocates_under_contention(self):
        spec = ScenarioSpec(
            name="dyn",
            workload="consolidated3",
            scheme="dynshare",
            base="quick",
            system={"cache_blocks": 512},
        )
        system = spec.build()
        result = system.run()
        scheme = system.balancer
        assert result.completed > 0
        assert result.scheme_decisions
        total = sum(scheme.shares.values())
        assert total <= system.store.capacity_blocks
        assert all(
            share >= scheme.config.min_share_blocks
            for share in scheme.shares.values()
        )
        # the run visited enough windows to record observed curves
        assert all(scheme.curves[tid] for tid in scheme.shares)
        assert result.scheme_stats["reallocations"] > 0

    def test_single_tenant_never_moves_shares(self):
        spec = ScenarioSpec(
            name="single", workload="web", scheme="dynshare", base="quick"
        )
        result = spec.run()
        assert result.completed > 0
        assert all(d.moved_blocks == 0 for d in result.scheme_decisions)

    def test_determinism(self):
        spec = ScenarioSpec(
            name="det",
            workload="consolidated3",
            scheme="dynshare",
            base="quick",
            horizon_intervals=20,
        )
        a = stats_fingerprint(spec.run())
        b = stats_fingerprint(spec.run())
        assert _normalized(a) == _normalized(b)


class TestSloStealScheme:
    def test_steals_toward_slo_violator(self):
        from repro.scenario import get_scenario

        system = get_scenario("churn_consolidated").build()
        result = system.run(until_us=60 * system.config.interval_us)
        scheme = system.balancer
        stats = result.scheme_stats
        assert result.completed > 0
        assert stats["declared_targets"] == [0, 1, 2]
        assert stats["reallocations"] > 0
        assert stats["blocks_moved"] > 0
        # every decision moved share from a donor to the worst violator
        for decision in result.scheme_decisions:
            if decision.moved_blocks:
                assert decision.from_tenant != decision.to_tenant
                assert decision.violations
        # shares stay within capacity and above the configured floor
        total = sum(scheme.shares.values())
        assert total <= system.store.capacity_blocks
        assert all(
            share >= scheme.config.min_share_blocks
            for share in scheme.shares.values()
        )

    def test_departed_tenant_leaves_share_map(self):
        from repro.scenario import get_scenario

        system = get_scenario("churn_consolidated").build()
        system.run(until_us=60 * system.config.interval_us)
        scheme = system.balancer
        assert 2 not in scheme.shares
        assert 2 not in scheme.allocator.quotas
        assert scheme.allocator.occupancy().get(2, 0) == 0

    def test_runs_without_declared_slos(self):
        # no targets anywhere: the scheme degrades to latency fairness
        # (fleet-mean p99 ratios) and must still run deterministically
        spec = ScenarioSpec(
            name="nolo",
            workload="consolidated3",
            scheme="slosteal",
            base="quick",
            horizon_intervals=20,
        )
        a = stats_fingerprint(spec.run())
        b = stats_fingerprint(spec.run())
        assert _normalized(a) == _normalized(b)
        assert a["completed"] > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SloStealConfig(min_share_blocks=0).validate()
        with pytest.raises(ValueError):
            SloStealConfig(max_step_blocks=0).validate()
        with pytest.raises(ValueError):
            SloStealConfig(donor_headroom=1.5).validate()

    def test_violation_ratios_do_not_depend_on_the_interpreter(self, python312_sum):
        # The fleet-mean p99 of (0.1, 0.2, 0.3) rounds up under a left
        # fold and down under 3.12's compensated sum(), which would move
        # tenant 1 across the violation boundary.
        p99s = {0: 0.1, 1: 0.2, 2: 0.3}
        idle = dict.fromkeys(p99s, 0)
        ratios = SloStealScheme()._violation_ratios([0, 1, 2], p99s, idle, idle)
        fleet_mean = (0.1 + 0.2 + 0.3) / 3
        assert ratios == {tid: p99 / fleet_mean for tid, p99 in p99s.items()}
        assert ratios[1] < 1.0

    def test_detach_removes_completion_hook(self):
        system = ExperimentSystem.build(
            "consolidated3", "slosteal", quick_config()
        )
        hook = system.balancer._windows.record
        assert hook in system.controller._completion_hooks
        system.balancer.detach()
        assert hook not in system.controller._completion_hooks
        assert system.controller.allocator is None


class TestSchemeCompare:
    def test_five_scheme_table(self):
        runner = ExperimentRunner(quick_config())
        comparison = generate_scheme_compare(runner, workloads=("web",))
        assert comparison.schemes == scheme_names()
        table = comparison.table()
        for scheme in scheme_names():
            assert scheme in table
        assert comparison.all_passed, comparison.checks_table()


class TestCli:
    def test_list_schemes_flag(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list-schemes"]) == 0
        out = capsys.readouterr().out
        for name in scheme_names():
            assert name in out

    def test_repro_dispatcher_forwards_flags(self, capsys):
        from repro.__main__ import main

        assert main(["--list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "dynshare" in out

    def test_schemes_target_accepted_by_parser(self):
        from repro.experiments.cli import build_parser

        assert build_parser().parse_args(["schemes"]).target == "schemes"
