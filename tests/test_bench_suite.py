"""Golden-stats tests for the benchmark suite's fingerprint gate.

The committed golden file pins the deterministic stats fingerprint of
every canonical scenario at quick scale.  Any engine change that alters
simulation results — event ordering, RNG consumption, float arithmetic —
trips these tests; a pure performance optimization must keep them green
(the ISSUE-2 "bit-identical ``RunResult`` stats" guarantee).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import quick_config
from repro.sim.summation import left_sum

_REPO = Path(__file__).resolve().parent.parent
_GOLDEN_PATH = _REPO / "benchmarks" / "golden" / "suite_quick.json"

_spec = importlib.util.spec_from_file_location(
    "bench_suite", _REPO / "benchmarks" / "suite.py"
)
suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite)

GOLDEN = json.loads(_GOLDEN_PATH.read_text())


def _normalized(stats: dict) -> dict:
    """Round-trip through JSON so floats/keys compare like the on-disk golden."""
    return json.loads(json.dumps(stats, sort_keys=True))


class TestGoldenStats:
    def test_golden_covers_all_scenarios(self):
        assert set(GOLDEN["scenarios"]) == set(suite.SCENARIOS)
        assert GOLDEN["config"] == "quick"

    @pytest.mark.parametrize("name", sorted(set(GOLDEN["scenarios"]) - {"grid_fanout"}))
    def test_single_scenario_stats_match_golden(self, name):
        config = quick_config(GOLDEN["seed"])
        stats = suite.run_scenario(name, config)
        assert _normalized(stats) == GOLDEN["scenarios"][name], (
            f"{name}: RunResult stats diverge from the committed golden — "
            "either a behavior change leaked into the engine, or the golden "
            "needs a deliberate refresh via "
            "`python benchmarks/suite.py --quick --out "
            "benchmarks/golden/suite_quick.json`"
        )

    def test_golden_matches_under_python312_sum(self, python312_sum):
        # The golden must not depend on the interpreter: under 3.12's
        # compensated sum() every fingerprint field still matches.
        name = "consolidated3_dynshare"
        stats = suite.run_scenario(name, quick_config(GOLDEN["seed"]))
        assert _normalized(stats) == GOLDEN["scenarios"][name]

    def test_grid_fanout_stats_match_golden(self):
        # max_workers=2 also regression-checks that the parallel grid stays
        # bit-identical to the serial results the golden was verified against.
        config = quick_config(GOLDEN["seed"])
        stats = suite.run_scenario("grid_fanout", config, jobs=2)
        assert _normalized(stats) == GOLDEN["scenarios"]["grid_fanout"]


class TestLeftSum:
    def test_is_the_uncompensated_fold(self, python312_sum):
        values = [1e16, 1.0, -1e16]
        assert left_sum(values) == (1e16 + 1.0) - 1e16 == 0.0
        assert python312_sum(values) == 1.0

    def test_empty_input_gives_int_zero(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
        assert left_sum(iter([2.5])) == 2.5


class TestSuitePlumbing:
    def test_compare_goldens_detects_divergence(self):
        doc = {
            "config": "quick",
            "seed": GOLDEN["seed"],
            "scenarios": {
                name: dict(stats) for name, stats in GOLDEN["scenarios"].items()
            },
        }
        assert suite.compare_goldens(doc, GOLDEN) == []
        doc["scenarios"]["fig4_single_vm"]["completed"] = -1
        problems = suite.compare_goldens(doc, GOLDEN)
        assert any("fig4_single_vm" in p and "completed" in p for p in problems)

    def test_fingerprint_has_no_timing_fields(self):
        doc = suite.run_suite(
            quick=True,
            seed=GOLDEN["seed"],
            scenarios=["fig4_single_vm"],
            verbose=False,
        )
        assert set(doc) == {"config", "seed", "scenarios"}
        assert list(doc["scenarios"]) == ["fig4_single_vm"]
        stats = doc["scenarios"]["fig4_single_vm"]
        assert not any("wall" in k or "rss" in k or "perf" in k for k in stats)

    def test_golden_gate_checks_only_the_scenarios_that_ran(self, tmp_path):
        out = tmp_path / "fingerprints.json"
        argv = ["--quick", "--scenarios", "fig4_single_vm", "--out", str(out)]
        assert suite.main([*argv, "--golden", str(_GOLDEN_PATH)]) == 0
        written = json.loads(out.read_text())
        assert written["scenarios"] == {
            "fig4_single_vm": GOLDEN["scenarios"]["fig4_single_vm"]
        }

    def test_ran_scenario_without_golden_entry_fails(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(dict(GOLDEN, scenarios={})))
        argv = ["--quick", "--scenarios", "fig4_single_vm", "--golden", str(golden)]
        assert suite.main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        assert "fig4_single_vm: no golden entry" in capsys.readouterr().err

    def test_jobs_below_one_is_rejected(self, tmp_path, capsys):
        argv = ["--quick", "--scenarios", "grid_fanout", "--jobs", "0"]
        assert suite.main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["--jobs must be >= 1"]
        assert not (tmp_path / "out.json").exists()
