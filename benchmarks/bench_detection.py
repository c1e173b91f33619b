"""Detection bench: burst-detection quality and disk-headroom sweep.

Beyond the paper's figures: scores LBICA's Eq. 1 detector against the
workloads' scripted burst windows (recall must be total — a missed burst
means an unbalanced cache), and sweeps the disk subsystem's spindle
count to quantify how much headroom the bypass policies exploit.
"""

from repro.analysis.metrics import detection_quality
from repro.experiments.ablation import run_disk_headroom_sweep
from repro.experiments.runner import PAPER_WORKLOADS
from repro.experiments.system import ExperimentSystem


def test_burst_detection_quality(benchmark, paper_runner):
    def score_all():
        out = {}
        for workload in PAPER_WORKLOADS:
            result = paper_runner.run(workload, "lbica")
            scripted = ExperimentSystem.build(
                workload, "lbica", paper_runner.config
            ).workload.burst_intervals()
            detected = [d.interval_index for d in result.scheme_decisions if d.burst]
            out[workload] = detection_quality(detected, scripted, slack=30)
        return out

    scores = benchmark.pedantic(score_all, rounds=1, iterations=1)
    print()
    for workload, q in scores.items():
        print(
            f"  {workload:6s} precision={q.precision:.2f} recall={q.recall:.2f} "
            f"(tp={q.true_positives}, fp={q.false_positives})"
        )
        assert q.recall == 1.0, f"{workload}: scripted burst missed"
        assert q.precision > 0.5, f"{workload}: too many spurious detections"


def test_disk_headroom_sweep(benchmark):
    from repro.config import paper_config

    result = benchmark.pedantic(
        run_disk_headroom_sweep,
        args=("web",),
        kwargs={"config": paper_config(), "disk_counts": (1, 2, 4)},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.table())
    rows = result.rows
    # more spindles must never make LBICA slower
    lat1 = rows["lbica, 1 spindle(s)"]["mean_latency_us"]
    lat4 = rows["lbica, 4 spindle(s)"]["mean_latency_us"]
    assert lat4 <= lat1 * 1.1
