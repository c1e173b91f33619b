"""The paper's headline numbers (abstract / §IV-B / §IV-C / §IV-D).

Reproduces: the abstract's quantitative claims of Ahmadian et al.
(DATE 2019) as a paper-vs-measured table (H1/H2/H3 below).

Claims reproduced, each as a paper-vs-measured row:

- **H1** (§IV-B): LBICA reduces the load on the I/O cache vs SIB by 30%
  on average.
- **H2** (§IV-C): during burst intervals LBICA's policy assignment cuts
  cache load by up to 70% (48% on average) relative to the unbalanced WB
  baseline over the same intervals.
- **H3** (§IV-D): average latency improves up to 22% / 11.7% vs WB / SIB
  (14% / 7% on average); TPC-C benefits most, mail least.

Absolute percentages depend on the testbed; the verdict column records
whether the *direction and ordering* hold, and the measured magnitudes
are reported alongside the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.metrics import load_reduction
from repro.analysis.report import format_table
from repro.core.bottleneck import cache_is_bottleneck
from repro.experiments.runner import PAPER_WORKLOADS, ExperimentRunner

__all__ = ["HeadlineReport", "generate_headline"]


@dataclass
class HeadlineReport:
    """Measured counterparts of the paper's headline claims."""

    cache_cut_vs_sib: dict[str, float] = field(default_factory=dict)
    cache_cut_vs_wb_burst: dict[str, float] = field(default_factory=dict)
    latency_gain_vs_wb: dict[str, float] = field(default_factory=dict)
    latency_gain_vs_sib: dict[str, float] = field(default_factory=dict)
    rows: list[tuple[str, str, str, str]] = field(default_factory=list)

    @property
    def avg_cache_cut_vs_sib(self) -> float:
        """Mean cache-load reduction vs SIB across workloads."""
        return float(np.mean(list(self.cache_cut_vs_sib.values())))

    @property
    def avg_cache_cut_vs_wb_burst(self) -> float:
        """Mean burst-interval cache-load reduction vs WB."""
        return float(np.mean(list(self.cache_cut_vs_wb_burst.values())))

    @property
    def all_directions_hold(self) -> bool:
        """Whether every headline claim holds directionally."""
        return (
            all(v > 0 for v in self.cache_cut_vs_sib.values())
            and all(v > 0 for v in self.cache_cut_vs_wb_burst.values())
            and all(v > 0 for v in self.latency_gain_vs_wb.values())
            and all(v > 0 for v in self.latency_gain_vs_sib.values())
        )

    def table(self) -> str:
        """Fixed-width paper-vs-measured table."""
        return format_table(
            ["claim", "paper", "measured", "verdict"], self.rows, title="headline claims"
        )


def generate_headline(
    runner: Optional[ExperimentRunner] = None,
    workloads: tuple[str, ...] = PAPER_WORKLOADS,
) -> HeadlineReport:
    """Compute the headline comparison across the standard grid."""
    runner = runner or ExperimentRunner()
    report = HeadlineReport()

    for workload in workloads:
        wb = runner.run(workload, "wb")
        sib = runner.run(workload, "sib")
        lbica = runner.run(workload, "lbica")

        report.cache_cut_vs_sib[workload] = load_reduction(
            sib.cache_load_series(), lbica.cache_load_series()
        )
        # burst intervals: where the WB run's cache queue exceeded its
        # disk queue (the unbalanced system's own Eq. 1 readings)
        burst_ivals = [
            s.index
            for s in wb.samples
            if cache_is_bottleneck(s.cache_qtime, s.disk_qtime, 1.0, 0.0)
        ]
        report.cache_cut_vs_wb_burst[workload] = load_reduction(
            wb.cache_load_series(), lbica.cache_load_series(), intervals=burst_ivals
        )
        report.latency_gain_vs_wb[workload] = (
            (wb.mean_latency - lbica.mean_latency) / wb.mean_latency
            if wb.mean_latency > 0
            else 0.0
        )
        report.latency_gain_vs_sib[workload] = (
            (sib.mean_latency - lbica.mean_latency) / sib.mean_latency
            if sib.mean_latency > 0
            else 0.0
        )

    def verdict(ok: bool) -> str:
        return "direction holds" if ok else "DIVERGES"

    report.rows = [
        (
            "H1: cache load cut vs SIB (avg)",
            "30%",
            f"{report.avg_cache_cut_vs_sib:.0%}",
            verdict(all(v > 0 for v in report.cache_cut_vs_sib.values())),
        ),
        (
            "H2: burst cache load cut (avg)",
            "48% (up to 70%)",
            f"{report.avg_cache_cut_vs_wb_burst:.0%} "
            f"(up to {max(report.cache_cut_vs_wb_burst.values()):.0%})",
            verdict(all(v > 0 for v in report.cache_cut_vs_wb_burst.values())),
        ),
        (
            "H3a: latency gain vs WB (avg)",
            "14% (up to 22%)",
            f"{float(np.mean(list(report.latency_gain_vs_wb.values()))):.0%} "
            f"(up to {max(report.latency_gain_vs_wb.values()):.0%})",
            verdict(all(v > 0 for v in report.latency_gain_vs_wb.values())),
        ),
        (
            "H3b: latency gain vs SIB (avg)",
            "7% (up to 11.7%)",
            f"{float(np.mean(list(report.latency_gain_vs_sib.values()))):.0%} "
            f"(up to {max(report.latency_gain_vs_sib.values()):.0%})",
            verdict(all(v > 0 for v in report.latency_gain_vs_sib.values())),
        ),
    ]
    return report
