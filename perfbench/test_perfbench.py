"""Tests of the benchmark's own machinery.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

#: Short runs keep the determinism checks cheap; every layer a workload
#: exercises is active well before this many monitoring intervals.
HORIZON_INTERVALS = 40


def test_every_hooked_method_exists():
    methods = layers.hooked_methods()
    hooked_layers = {layer for layer, _, _ in methods}
    assert hooked_layers == set(layers.LAYERS) - {"sim"}


def test_a_renamed_method_fails_the_map(monkeypatch):
    monkeypatch.setitem(
        layers.HOOKS, "core", (("repro.core.lbica", "LbicaController", ("_tock",)),)
    )
    with pytest.raises(LookupError, match="LbicaController._tock"):
        layers.hooked_methods()


def test_installed_wraps_and_restores():
    before = {(cls, name): cls.__dict__[name] for _, cls, name in layers.hooked_methods()}
    with layers.installed(layers.Ledger()):
        assert all(cls.__dict__[name] is not fn for (cls, name), fn in before.items())
    assert all(cls.__dict__[name] is fn for (cls, name), fn in before.items())


@pytest.mark.parametrize("workload", sorted(measure.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (
        measure.run_once(workload, 3, traced=True, horizon_intervals=HORIZON_INTERVALS)
        for _ in range(2)
    )
    untraced = measure.run_once(workload, 3, horizon_intervals=HORIZON_INTERVALS)

    def calls_per_io(record):
        return {k: v for k, v in run.layer_ledger(record).items() if k.endswith("calls_per_io")}

    assert calls_per_io(first) == calls_per_io(second)
    assert first["model"] == second["model"] == untraced["model"]
    # The wrapping does not perturb the simulation.
    assert first["digest"] == second["digest"] == untraced["digest"]


def test_ledger_adds_up_to_the_traced_loop():
    record = measure.run_once(
        "tpcc_lbica", 3, traced=True, horizon_intervals=HORIZON_INTERVALS
    )
    assert sum(record["ledger"]["self_ns"]) == pytest.approx(record["loop_ns"], rel=0.01)


def test_computed_metrics_match_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = [
        measure.run_once("mail_lbica", 5, traced=t, horizon_intervals=HORIZON_INTERVALS)
        for t in (False, True)
    ]
    for record in records:
        record.update(ok=True, setup_s=0.5, peak_rss_kb=50_000)
    untraced, traced = records[:1], records[1:]
    assert set(run.end_to_end(untraced, 1.0)) == {m["name"] for m in declared["end_to_end"]}
    assert set(run.per_layer(untraced, traced)) == {m["name"] for m in declared["per_layer"]}


@pytest.mark.parametrize("workload", sorted(measure.WORKLOADS))
def test_reference_matches_a_full_run(workload):
    entries = json.loads(run.REFERENCES.read_text())["workloads"][workload]
    assert len(entries) == run.SEEDS_PER_WORKLOAD
    reference = run.reference_for(workload, 0)
    record = measure.run_once(workload, reference["seed"])
    assert record["digest"] == reference["digest"]
    assert run.in_character(workload, record)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpcc_lbica", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
