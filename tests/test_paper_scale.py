"""Paper-scale shape checks: Figs. 4–7, the headline claims, detection
quality and the ablations, all at the paper configuration (seed 7).

The quick-scale figure tests (``test_experiments_figures.py``) pin the
mechanics; these pin the paper's shapes where the paper measured them.
One module-scoped runner simulates the 3×3 (workload × scheme) grid
once, and every figure, the headline and the detection scores read it.
The same grid is checked against the paper-scale golden fingerprints
(``benchmarks/golden/suite_paper.json``, entry ``grid_fanout``), so this
module also gates that golden without simulating anything extra.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.metrics import detection_quality
from repro.config import paper_config
from repro.experiments.ablation import run_ablations, run_disk_headroom_sweep
from repro.experiments.fig4 import generate_fig4
from repro.experiments.fig5 import generate_fig5
from repro.experiments.fig6 import generate_fig6
from repro.experiments.fig7 import generate_fig7
from repro.experiments.headline import generate_headline
from repro.experiments.runner import PAPER_WORKLOADS, ExperimentRunner
from repro.experiments.system import SCHEMES, ExperimentSystem
from repro.scenario import stats_fingerprint

_REPO = Path(__file__).resolve().parent.parent
_GOLDEN_PATH = _REPO / "benchmarks" / "golden" / "suite_paper.json"


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    """Memoizing paper-scale runner (seed 7) shared by the whole module."""
    return ExperimentRunner(paper_config())


def test_paper_grid_matches_golden(runner):
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert (golden["config"], golden["seed"]) == ("paper", runner.config.seed)
    grid = runner.run_many()
    assert len(grid) == 9 and all(r.completed > 0 for r in grid.values())
    stats = {f"{wl}/{sc}": stats_fingerprint(r) for (wl, sc), r in grid.items()}
    assert json.loads(json.dumps(stats)) == golden["scenarios"]["grid_fanout"]


def test_fig4_cache_load(runner):
    fig = generate_fig4(runner)
    assert fig.all_passed, fig.checks_table()
    # every panel covers the paper's full interval axis
    assert [len(fig.series[w][0]) for w in PAPER_WORKLOADS] == [200, 200, 175]


@pytest.mark.parametrize("generate", [generate_fig5, generate_fig7])
def test_figure_checks_pass(runner, generate):
    fig = generate(runner)
    assert fig.all_passed, fig.checks_table()


def test_fig6_policy_timeline(runner):
    fig = generate_fig6(runner)
    assert fig.all_passed, fig.checks_table()
    timelines = fig.extra["timelines"]
    assert timelines["tpcc"][0][1] == "WO"
    assert [p for _, p, _, _ in timelines["mail"]][:3] == ["RO", "WO", "WB"]
    assert timelines["web"][0][1] == "RO"
    # the write-intensive (Group 3) phase must actually shed queue tail
    decisions = runner.run("mail", "lbica").scheme_decisions
    assert sum(d.bypassed for d in decisions) > 0


def test_headline_claims(runner):
    report = generate_headline(runner)
    assert report.all_directions_hold, report.table()
    gains = report.latency_gain_vs_sib
    assert gains["tpcc"] == max(gains.values())
    assert gains["mail"] == min(gains.values())


@pytest.mark.parametrize("workload", PAPER_WORKLOADS)
def test_burst_detection_quality(runner, workload):
    decisions = runner.run(workload, "lbica").scheme_decisions
    scripted = ExperimentSystem.build(
        workload, "lbica", runner.config
    ).workload.burst_intervals()
    detected = [d.interval_index for d in decisions if d.burst]
    q = detection_quality(detected, scripted, slack=30)
    assert q.recall == 1.0, f"{workload}: scripted burst missed"
    assert q.precision > 0.5, f"{workload}: too many spurious detections"


def test_mail_ablation():
    rows = run_ablations(
        "mail",
        config=paper_config(),
        include_replacement_sweep=False,
        include_margin_sweep=False,
    ).rows
    adaptive = rows["lbica (adaptive)"]["mean_latency_us"]
    for fixed in ("fixed WB", "fixed WT", "fixed WO"):
        assert adaptive < rows[fixed]["mean_latency_us"], fixed
    # strict WT+WO never serves read-after-read: not better than plain WT
    assert (
        rows["sib (strict WT+WO)"]["mean_latency_us"]
        >= rows["sib (default WT)"]["mean_latency_us"] * 0.9
    )


@pytest.mark.parametrize("replacement", ["lru", "fifo", "clock", "lfu"])
def test_lbica_gain_holds_for_replacement_policy(replacement):
    config = replace(paper_config(), replacement=replacement)
    lbica = ExperimentSystem.build("web", "lbica", config).run()
    wb = ExperimentSystem.build("web", "wb", config).run()
    assert lbica.mean_latency < wb.mean_latency


def test_disk_headroom_never_slows_lbica():
    rows = run_disk_headroom_sweep(
        "web", config=paper_config(), disk_counts=(1, 4)
    ).rows
    lat1 = rows["lbica, 1 spindle(s)"]["mean_latency_us"]
    assert rows["lbica, 4 spindle(s)"]["mean_latency_us"] <= lat1 * 1.1


def test_multi_tenant_grid(runner):
    for workload in ("consolidated3", "bootstorm_neighbors"):
        for scheme in SCHEMES:
            result = runner.run(workload, scheme)
            assert len(result.tenant_ids) >= 2, workload
            total = sum(ts["completed"] for ts in result.tenant_stats.values())
            assert result.completed > 0 and total == result.completed
        lbica = runner.run(workload, "lbica")
        assert lbica.mean_latency < runner.run(workload, "wb").mean_latency, workload
