"""Tests for the declarative scenario layer (``repro.scenario``).

The load-bearing guarantee: a scenario expressed as data — including a
JSON round-trip — runs **bit-identically** to its code-built equivalent.
The committed golden file under ``benchmarks/golden/`` *is* the
code-built fingerprint of every canonical suite scenario, so each
canonical scenario gets one spec-built-equals-golden test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import quick_config
from repro.experiments.runner import run_spec_grid
from repro.experiments.system import ExperimentSystem
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    get_scenario,
    load_scenario,
    register_scenario,
    scenario_descriptions,
    stats_fingerprint,
)
from repro.scenario.smoke import run_smoke

_REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (_REPO / "benchmarks" / "golden" / "suite_quick.json").read_text()
)
EXAMPLES = _REPO / "examples" / "scenarios"


def _normalized(stats: dict) -> dict:
    """Round-trip through JSON so floats/keys compare like the golden."""
    return json.loads(json.dumps(stats, sort_keys=True))


def _quick_spec(payload: dict) -> ScenarioSpec:
    """A spec from dict form, forced through a JSON round-trip first."""
    return ScenarioSpec.from_dict(json.loads(json.dumps(payload)))


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            name="rt",
            workload="mail",
            scheme="sib",
            base="quick",
            system={"seed": 11, "lbica": {"margin": 2.0}},
            fixed_policy=None,
            horizon_intervals=5,
            sweep_axes={"scheme": ["wb", "sib"]},
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_json_round_trip_via_file(self, tmp_path):
        spec = get_scenario("consolidated3")
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        assert load_scenario(path) == spec

    def test_sweep_key_maps_to_sweep_axes(self):
        spec = _quick_spec({"name": "s", "sweep": {"scheme": ["wb", "lbica"]}})
        assert spec.sweep_axes == {"scheme": ["wb", "lbica"]}
        assert spec.to_dict()["sweep"] == {"scheme": ["wb", "lbica"]}

    def test_to_dict_is_deep_copied(self):
        spec = _quick_spec({"name": "s", "system": {"seed": 1}})
        spec.to_dict()["system"]["seed"] = 99
        assert spec.system["seed"] == 1


class TestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"name": "x", "bogus": 1},
            {"name": "x", "scheme": "nope"},
            {"name": "x", "base": "mega"},
            {"name": "x", "fixed_policy": "XX"},
            {"name": "x", "horizon_intervals": 0},
            {"name": "x", "horizon_intervals": -3},
            {"name": "x", "system": {"cache_bloks": 4096}},
            {"name": "x", "system": {"lbica": {"margn": 2}}},
            {"name": "x", "system": {"ssd": {"read_us": 90, "bogus": 1}}},
            {"name": "x", "workload": "no_such_workload"},
            {"name": "x", "workload": 42},
            {"name": "x", "sweep": {"name": ["a", "b"]}},
            {"name": "x", "sweep": {"scheme.sub": ["wb"]}},
            {"name": "x", "sweep": {"scheme": []}},
            {"name": "x", "sweep": {"scheme": "wb"}},
            {"bogus_only": True},
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(payload)

    def test_rejects_invalid_system_values(self):
        with pytest.raises(ValueError):
            _quick_spec({"name": "x", "system": {"cache_blocks": -1}}).validate()

    #: ``system`` values the build would reject, with the key each
    #: error must name.  They used to pass validation and fail in
    #: ``build()`` (``max_merge_blocks: -1`` even ran).
    BAD_SYSTEM_VALUES = [
        ({"ssd_depth": 0}, "ssd_depth"),
        ({"ssd_depth": -1}, "ssd_depth"),
        ({"hdd_depth": 0}, "hdd_depth"),
        ({"max_outstanding": 0}, "max_outstanding"),
        ({"max_outstanding": -5}, "max_outstanding"),
        ({"cache_associativity": 0}, "cache_associativity"),
        ({"cache_blocks": 12, "cache_associativity": 8}, "cache_associativity"),
        ({"cache_blocks": 8, "cache_associativity": 16}, "cache_associativity"),
        ({"replacement": "bogus"}, "replacement"),
        ({"seed": -1}, "seed"),
        ({"max_merge_blocks": -1}, "max_merge_blocks"),
    ]

    @pytest.mark.parametrize(
        "system,key", BAD_SYSTEM_VALUES, ids=[str(v) for v, _ in BAD_SYSTEM_VALUES]
    )
    def test_rejects_system_values_the_build_would(self, system, key):
        with pytest.raises(ScenarioError, match=rf"scenario 'x': {key}\b"):
            ScenarioSpec.from_dict({"name": "x", "base": "quick", "system": system})

    #: Scheme-config values ``tests/test_validation_fuzz.py`` found
    #: passing validation and then failing at build, run or inside
    #: ``validate`` itself (a plain ``ValueError`` or ``TypeError``), or,
    #: for ``revert_after_quiet: 1.5``, running with a float count.
    BAD_SCHEME_VALUES = [
        ({"lbica": {"margin": 0.5}}, "margin"),
        ({"lbica": {"min_cache_qtime_us": -1.0}}, "min_cache_qtime_us"),
        ({"lbica": {"max_bypass_per_round": 0}}, "max_bypass_per_round"),
        ({"lbica": {"revert_after_quiet": "x"}}, "revert_after_quiet"),
        ({"lbica": {"revert_after_quiet": 1.5}}, "revert_after_quiet"),
        ({"partition": {"weights": "x"}}, "weights"),
        ({"partition": {"weights": 3}}, "weights"),
        ({"partition": {"weights": ["x"]}}, "weights"),
    ]

    @pytest.mark.parametrize(
        "system,key", BAD_SCHEME_VALUES, ids=[str(v) for v, _ in BAD_SCHEME_VALUES]
    )
    def test_rejects_scheme_values_the_run_would(self, system, key):
        payload = {"name": "x", "base": "quick", "workload": "web", "system": system}
        with pytest.raises(ScenarioError, match=rf"scenario 'x': {key}\b"):
            ScenarioSpec.from_dict(payload)

    #: Tick-period keys no scheme config has: every control loop runs a
    #: whole number of times per monitoring interval, so a period
    #: override must fail validation rather than be ignored.
    TICK_PERIOD_PATHS = [
        "system.lbica.decision_interval_us",
        "system.sib.check_interval_us",
        "system.dynshare.decision_interval_us",
        "system.slosteal.decision_interval_us",
        "system.partition.report_interval_us",
    ]

    @pytest.mark.parametrize("path", TICK_PERIOD_PATHS)
    def test_rejects_tick_period_override(self, path):
        _, block, key = path.split(".")
        payload = {"name": "x", "system": {block: {key: 10_000.0}}}
        with pytest.raises(ScenarioError, match=rf"system\.{block}: .*'{key}'"):
            ScenarioSpec.from_dict(payload)

    #: Replay knobs that no longer exist: a replay's chunk size is a
    #: module constant, every input streams, and only trace operators
    #: (``time_compress``) change timestamps.
    @pytest.mark.parametrize(
        "key,value",
        [("streaming", False), ("chunk_records", 7), ("time_scale", 0.5)],
    )
    def test_rejects_removed_trace_keys(self, key, value):
        scenario = json.loads((EXAMPLES / "trace_replay.json").read_text())
        scenario["workload"]["trace"]["path"] = str(
            _REPO / scenario["workload"]["trace"]["path"]
        )
        ScenarioSpec.from_dict(scenario)  # valid without the key
        scenario["workload"]["trace"][key] = value
        with pytest.raises(ScenarioError, match=rf"unknown keys \['{key}'\]"):
            ScenarioSpec.from_dict(scenario)

    @pytest.mark.parametrize(
        "system",
        [
            {"ssd": {"read_us": float("nan")}},
            {"ssd": {"cliff_write_us": float("inf")}},
            {"ssd": {"jitter_sigma": -0.1}},
            {"hdd": {"avg_seek_us": float("nan")}},
            {"hdd": {"jitter_sigma": -1}},
            {"hdd": {"seq_window_blocks": -5}},
        ],
    )
    def test_rejects_bad_device_model_values(self, system):
        with pytest.raises(ScenarioError, match="scenario 'x'"):
            ScenarioSpec.from_dict({"name": "x", "system": system})

    #: Scenario files with a non-finite run parameter, as JSON text
    #: (Python's json reads NaN, and 1e400 overflows to inf).  The first
    #: used to hang ``python -m repro.scenario``; the NaN rates ran and
    #: reported OK.
    NON_FINITE_FILES = {
        "nan_interval": '{"name": "x", "system": {"interval_us": NaN}}',
        "inf_interval": '{"name": "x", "system": {"interval_us": 1e400}}',
        "nan_rate_scale": '{"name": "x", "system": {"rate_scale": NaN}}',
        "nan_writeback_interval": (
            '{"name": "x", "system": {"writeback": {"interval_us": NaN}}}'
        ),
        "inf_lbica_margin": '{"name": "x", "system": {"lbica": {"margin": 1e400}}}',
        "nan_sib_margin": '{"name": "x", "system": {"sib": {"margin": NaN}}}',
        "nan_phase_rate": (
            '{"name": "x", "workload": {"name": "w", "phases": [{"label": "p", '
            '"n_intervals": 4, "rate_iops": NaN, "write_frac": 0.1, '
            '"read_pattern": {"kind": "uniform", "start": 0, "span": 64}}]}}'
        ),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE_FILES))
    def test_rejects_non_finite_run_parameters(self, name):
        payload = json.loads(self.NON_FINITE_FILES[name])
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec.from_dict(payload)

    def test_smoke_cli_fails_fast_on_nan_interval(self, tmp_path):
        path = tmp_path / "nan_interval.json"
        path.write_text(self.NON_FINITE_FILES["nan_interval"])
        env = dict(os.environ)
        src = str(_REPO / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # The timeout is the regression check: the run used to hang.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.scenario", str(path), "--horizon", "3"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "interval_us must be finite" in proc.stdout + proc.stderr

    def test_rejects_malformed_inline_workload(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(
                {"name": "x", "workload": {"name": "w", "phases": []}}
            )

    def test_vms_consolidation_names_accepted(self):
        spec = _quick_spec({"name": "x", "workload": "vms:web+web", "base": "quick"})
        assert spec.workload == "vms:web+web"


class TestConfig:
    def test_from_config_round_trips_exactly(self):
        config = quick_config(seed=23)
        spec = ScenarioSpec.from_config(config, workload="web", scheme="sib")
        assert spec.to_config() == config

    def test_base_presets(self):
        assert _quick_spec({"name": "q", "base": "quick"}).to_config() == quick_config()
        paper = _quick_spec({"name": "p"}).to_config()
        assert paper.interval_us == 50_000.0

    def test_int_widens_to_float_fields(self):
        spec = _quick_spec(
            {"name": "x", "base": "quick", "system": {"interval_us": 15000}}
        )
        config = spec.to_config()
        assert config.interval_us == 15_000.0
        assert isinstance(config.interval_us, float)
        assert config == quick_config()

    def test_nested_override_applies(self):
        spec = _quick_spec(
            {"name": "x", "system": {"lbica": {"margin": 2.5}, "hdd_disks": 4}}
        )
        config = spec.to_config()
        assert config.lbica.margin == 2.5
        assert config.hdd_disks == 4


class TestSweep:
    def test_expand_cartesian_product(self):
        spec = _quick_spec(
            {
                "name": "grid",
                "base": "quick",
                "sweep": {"workload": ["tpcc", "mail"], "scheme": ["wb", "lbica"]},
            }
        )
        grid = spec.expand()
        assert len(grid) == 4
        assert grid[0].name == "grid[workload=tpcc,scheme=wb]"
        assert all(g.sweep_axes == {} for g in grid)
        assert {(g.workload, g.scheme) for g in grid} == {
            ("tpcc", "wb"), ("tpcc", "lbica"), ("mail", "wb"), ("mail", "lbica"),
        }

    def test_sweep_dotted_system_path(self):
        spec = ScenarioSpec(name="s", base="quick")
        seeds = [3, 5]
        grid = spec.sweep({"system.seed": seeds})
        assert [g.to_config().seed for g in grid] == seeds
        assert [g.name for g in grid] == ["s[seed=3]", "s[seed=5]"]

    def test_sweep_does_not_mutate_base(self):
        spec = ScenarioSpec(name="s", base="quick")
        spec.sweep({"system.lbica.margin": [9.0]})
        assert spec.system == {}

    def test_running_unexpanded_sweep_raises(self):
        spec = _quick_spec(
            {"name": "s", "base": "quick", "sweep": {"scheme": ["wb", "sib"]}}
        )
        with pytest.raises(ScenarioError):
            spec.run()

    def test_expand_without_axes_is_identity_copy(self):
        spec = ScenarioSpec(name="solo", base="quick")
        grid = spec.expand()
        assert len(grid) == 1 and grid[0] == spec


class TestRegistry:
    def test_descriptions_cover_all(self):
        descriptions = scenario_descriptions()
        assert set(descriptions) >= {
            "fig4_single_vm", "consolidated3", "bootstorm_neighbors", "paper_grid",
        }
        assert all(descriptions.values())

    def test_get_scenario_returns_private_copy(self):
        spec = get_scenario("fig4_single_vm")
        spec.scheme = "wb"
        assert get_scenario("fig4_single_vm").scheme == "lbica"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario(get_scenario("fig4_single_vm"))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            get_scenario("no_such_scenario")


class TestRun:
    def test_horizon_truncates(self):
        base = {"name": "h", "workload": "web", "base": "quick"}
        short = _quick_spec({**base, "horizon_intervals": 3}).run()
        assert len(short.samples) <= 3

    def test_fixed_policy_pins_controller(self):
        spec = _quick_spec(
            {
                "name": "ro",
                "workload": "web",
                "scheme": "wb",
                "base": "quick",
                "fixed_policy": "ro",
                "horizon_intervals": 5,
            }
        )
        system = spec.build()
        assert system.controller.policy.value == "RO"

    def test_experiment_system_from_spec(self):
        spec = _quick_spec({"name": "x", "workload": "web", "base": "quick"})
        system = ExperimentSystem.from_spec(spec)
        assert system.workload.name == "web"


class TestSmoke:
    def test_examples_library_smokes_clean(self):
        files = sorted(EXAMPLES.glob("*.json"))
        assert files, "examples/scenarios/ must not be empty"
        doc = run_smoke(files, horizon_intervals=2, verbose=False)
        assert doc["errors"] == {}
        assert len(doc["files"]) == len(files)
        for fingerprints in doc["files"].values():
            for fingerprint in fingerprints.values():
                assert fingerprint["completed"] >= 0

    def test_non_finite_device_time_fails_the_file(self, tmp_path):
        # JSON's NaN literal parses to a float NaN
        bad = tmp_path / "nan.json"
        bad.write_text('{"name": "nan", "system": {"ssd": {"read_us": NaN}}}')
        doc = run_smoke([bad], horizon_intervals=2, verbose=False)
        assert "read_us must be finite" in doc["errors"][str(bad)]
        assert doc["files"] == {}

    def test_broken_file_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "scheme": "nope"}))
        doc = run_smoke([bad], horizon_intervals=2, verbose=False)
        assert str(bad) in doc["errors"]
        assert doc["files"] == {}


class TestCanonicalEquivalence:
    """One spec-equals-code-built fingerprint test per canonical suite
    scenario — the goldens are the committed code-built fingerprints."""

    def test_fig4_single_vm(self):
        spec = _quick_spec(
            {
                "name": "fig4_single_vm",
                "workload": "tpcc",
                "scheme": "lbica",
                "base": "quick",
                "system": {"seed": GOLDEN["seed"]},
            }
        )
        assert (
            _normalized(stats_fingerprint(spec.run()))
            == GOLDEN["scenarios"]["fig4_single_vm"]
        )

    def test_consolidated3_from_tenants_json(self):
        result = load_scenario(EXAMPLES / "consolidated3.json").run()
        assert (
            _normalized(stats_fingerprint(result))
            == GOLDEN["scenarios"]["consolidated3"]
        )

    def test_bootstorm_neighbors_from_tenants_json(self):
        result = load_scenario(EXAMPLES / "bootstorm_neighbors.json").run()
        assert (
            _normalized(stats_fingerprint(result))
            == GOLDEN["scenarios"]["bootstorm_neighbors"]
        )

    def test_grid_fanout_from_sweep(self):
        spec = get_scenario("paper_grid")
        spec.base = "quick"
        spec.system = {"seed": GOLDEN["seed"]}
        grid = run_spec_grid(spec.expand(), max_workers=2)
        assert len(grid) == 9
        for name, result in grid.items():
            cell = f"{result.workload}/{result.scheme}"
            assert (
                _normalized(stats_fingerprint(result))
                == GOLDEN["scenarios"]["grid_fanout"][cell]
            ), f"{name} diverges from golden {cell}"


CHURN_GOLDEN = json.loads(
    (_REPO / "benchmarks" / "golden" / "churn_quick.json").read_text()
)


class TestChurnScenarios:
    """The churn scenarios are pinned by their own committed golden:
    arrivals, departures, reclaim counters, and the SLO compliance
    series are all part of the fingerprint and must stay bit-identical
    across runs, process counts, and sessions."""

    def test_registered_builtin_matches_example_file(self):
        assert load_scenario(
            EXAMPLES / "churn_consolidated.json"
        ) == get_scenario("churn_consolidated")

    def test_churn_consolidated_matches_golden(self):
        result = load_scenario(EXAMPLES / "churn_consolidated.json").run()
        fingerprint = _normalized(stats_fingerprint(result))
        assert "slo_compliance" in fingerprint
        assert "service_stats" in fingerprint
        assert fingerprint == CHURN_GOLDEN["scenarios"]["churn_consolidated"]

    def test_churn_process_matches_golden(self):
        result = load_scenario(EXAMPLES / "churn_process.json").run()
        assert (
            _normalized(stats_fingerprint(result))
            == CHURN_GOLDEN["scenarios"]["churn_process"]
        )

    def test_churn_run_twice_bit_identical(self):
        spec = get_scenario("churn_consolidated")
        a, b = spec.run(), spec.run()
        assert stats_fingerprint(a) == stats_fingerprint(b)
        assert a.slo_series == b.slo_series
        assert a.service_stats == b.service_stats

    def test_churn_serial_vs_parallel_identical(self):
        specs = [
            get_scenario("churn_consolidated"),
            load_scenario(EXAMPLES / "churn_process.json"),
        ]
        serial = run_spec_grid(specs, max_workers=1)
        parallel = run_spec_grid(specs, max_workers=2)
        assert {n: stats_fingerprint(r) for n, r in serial.items()} == {
            n: stats_fingerprint(r) for n, r in parallel.items()
        }
        assert {n: r.slo_series for n, r in serial.items()} == {
            n: r.slo_series for n, r in parallel.items()
        }

    def test_churn_counters_reflect_lifecycles(self):
        result = get_scenario("churn_consolidated").run()
        stats = result.service_stats
        assert stats["arrivals"] == 1
        assert stats["departures"] == 1
        assert stats["departed"] == [2]
        assert stats["blocks_reclaimed"] > 0
        assert stats["blocks_rewarmed"] > 0
        # all three tenants declared SLOs; the monitor tracked each
        assert set(result.slo_stats["tenants"]) == {"0", "1", "2"}
        # the late arrival is judged over fewer intervals than tenant 0
        tenants = result.slo_stats["tenants"]
        assert tenants["1"]["intervals"] < tenants["0"]["intervals"]

    def test_non_churn_fingerprints_have_no_service_keys(self):
        spec = _quick_spec(
            {
                "name": "plain",
                "workload": "web",
                "base": "quick",
                "horizon_intervals": 2,
            }
        )
        fingerprint = stats_fingerprint(spec.run())
        assert "slo_compliance" not in fingerprint
        assert "service_stats" not in fingerprint

    def test_churn_spec_validation_errors(self):
        base = {
            "name": "x",
            "base": "quick",
            "workload": {
                "name": "w",
                "tenants": [{"workload": "web", "slo": {"bogus": 1}}],
            },
        }
        with pytest.raises(ValueError, match="unknown slo keys"):
            _quick_spec(base)
        bad_depart = json.loads(json.dumps(base))
        bad_depart["workload"]["tenants"][0] = {
            "workload": "web",
            "arrive_at_us": 100.0,
            "depart_at_us": 50.0,
        }
        with pytest.raises(ValueError, match="depart"):
            _quick_spec(bad_depart)
        churn_offset = json.loads(json.dumps(base))
        churn_offset["workload"]["tenants"][0] = {
            "workload": "web",
            "offset_intervals": 2,
        }
        churn_offset["workload"]["churn"] = {"seed": 3}
        with pytest.raises(ValueError, match="offset_intervals"):
            _quick_spec(churn_offset)


class TestSpecVsCodeBuilt:
    def test_spec_run_equals_code_built_run(self):
        # direct (non-golden) equivalence, including a system override
        config = dataclasses.replace(quick_config(3), hdd_disks=2)
        code_built = stats_fingerprint(
            ExperimentSystem.build("mail", "sib", config).run()
        )
        spec = _quick_spec(
            {
                "name": "mail_sib",
                "workload": "mail",
                "scheme": "sib",
                "base": "quick",
                "system": {"seed": 3, "hdd_disks": 2},
            }
        )
        assert stats_fingerprint(spec.run()) == code_built


class TestCodeReviewRegressions:
    def test_vms_workload_with_bad_component_rejected_at_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(
                {"name": "x", "workload": "vms:nope+web", "base": "quick"}
            )

    def test_smoke_missing_file_recorded_not_raised(self, tmp_path):
        missing = tmp_path / "gone.json"
        doc = run_smoke([missing], horizon_intervals=2, verbose=False)
        assert str(missing) in doc["errors"]

    def test_sweep_kwargs_override_axes_mapping(self):
        spec = ScenarioSpec(name="s", base="quick")
        grid = spec.sweep({"scheme": ["wb"]}, scheme=["lbica"])
        assert [g.scheme for g in grid] == ["lbica"]

    def test_swept_values_are_validated_at_expansion(self):
        spec = ScenarioSpec(name="s", base="quick")
        with pytest.raises(ScenarioError):
            spec.sweep({"scheme": ["bogus"]})
        with pytest.raises(ScenarioError):
            spec.sweep({"base": ["quick", "Quick"]})

    def test_unknown_base_raises_instead_of_defaulting(self):
        spec = ScenarioSpec(name="s")
        spec.base = "Quick"  # bypass from_dict validation
        with pytest.raises(ScenarioError):
            spec.to_config()

    def test_load_scenario_wraps_spec_errors_with_path(self, tmp_path):
        path = tmp_path / "bad_inline.json"
        path.write_text(json.dumps({
            "name": "x", "base": "quick",
            "workload": {"name": "w", "phases": [
                {"label": "p", "n_intervals": 1,
                 "read_pattern": {"kind": "uniform", "start": 0, "span": 8}}
            ]},
        }))
        with pytest.raises(ScenarioError, match="bad_inline.json"):
            load_scenario(path)

    def test_leaf_type_mismatches_rejected(self):
        for system in (
            {"seed": {"foo": 1}},          # mapping onto a scalar
            {"hdd_depth": "two"},          # string onto an int
            {"interval_us": "fast"},       # string onto a float
            {"replacement": 3},            # int onto a string
            {"lbica": {"use_window_mix": "yes"}},  # string onto a bool
            {"cache_blocks": 1.5},         # float onto an int
        ):
            with pytest.raises(ScenarioError):
                _quick_spec({"name": "x", "system": system})

    def test_too_deep_sweep_path_rejected_at_expansion(self):
        spec = ScenarioSpec(name="s", base="quick")
        with pytest.raises(ScenarioError):
            spec.sweep({"system.seed.typo": [1, 2]})

    def test_duplicate_sweep_values_rejected_at_expansion(self):
        spec = ScenarioSpec(name="s", workload="web", base="quick")
        with pytest.raises(ScenarioError, match="duplicate"):
            spec.sweep({"system.seed": [1, 1]})
