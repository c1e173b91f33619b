"""The five-scheme comparison: every registered scheme, one table.

The paper's Fig. 7 compares average latency across its three schemes;
this experiment generalizes that panel to the *whole registry* — the
paper trio plus the capacity-allocation competitors (``partition``,
``dynshare``) and anything registered downstream — and reports latency
(mean / p95 / max) alongside the read hit ratio, bypass count, and each
scheme's own decision-log size, per workload.

Shape checks are deliberately conservative: the paper's claims cover
only its own trio (LBICA beats WB on latency), so that ordering is
asserted per workload, while the competitors are only required to make
progress (complete requests, keep a sane hit ratio).  The point of the
table is the open comparison, not a pre-registered verdict.

Reproduces: the Fig. 7 latency comparison, widened to the scheme
registry (rows beyond ``wb``/``sib``/``lbica`` are this repo's
extension, not the paper's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.metrics import percentile
from repro.analysis.report import format_table
from repro.experiments.runner import PAPER_WORKLOADS, ExperimentRunner
from repro.schemes.registry import scheme_names

__all__ = ["SchemeComparison", "generate_scheme_compare"]


@dataclass
class SchemeComparison:
    """The (workload × scheme) comparison table plus its shape checks."""

    workloads: tuple[str, ...]
    schemes: tuple[str, ...]
    #: ``(workload, scheme) -> row metrics`` (JSON-friendly scalars).
    cells: dict[tuple[str, str], dict] = field(default_factory=dict)
    #: ``(description, passed)`` shape checks.
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check held."""
        return all(ok for _, ok in self.checks)

    def table(self) -> str:
        """Fixed-width latency/hit-ratio table, one row per combination."""
        rows = []
        for workload in self.workloads:
            for scheme in self.schemes:
                cell = self.cells[(workload, scheme)]
                rows.append(
                    (
                        workload,
                        scheme,
                        cell["completed"],
                        f"{cell['mean_latency']:.1f}",
                        f"{cell['p95_latency']:.1f}",
                        f"{cell['max_latency']:.1f}",
                        f"{cell['read_hit_ratio']:.2%}",
                        cell["bypassed"],
                        cell["decisions"],
                    )
                )
        return format_table(
            [
                "workload",
                "scheme",
                "completed",
                "mean µs",
                "p95 µs",
                "max µs",
                "hit ratio",
                "bypassed",
                "decisions",
            ],
            rows,
            title=f"scheme comparison ({len(self.schemes)} schemes)",
        )

    def checks_table(self) -> str:
        """Fixed-width shape-check table."""
        return format_table(
            ["check", "verdict"],
            [(desc, "pass" if ok else "FAIL") for desc, ok in self.checks],
            title="shape checks",
        )


def generate_scheme_compare(
    runner: Optional[ExperimentRunner] = None,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    schemes: Optional[Sequence[str]] = None,
) -> SchemeComparison:
    """Run every scheme on every workload and build the comparison.

    Args:
        runner: Memoizing runner to draw results from (a paper-config
            runner is built when omitted).
        workloads: Workload names (rows).
        schemes: Scheme subset; defaults to the full registry.
    """
    runner = runner or ExperimentRunner()
    names = tuple(schemes) if schemes is not None else scheme_names()
    comparison = SchemeComparison(workloads=tuple(workloads), schemes=names)
    for workload in comparison.workloads:
        for scheme in names:
            result = runner.run(workload, scheme)
            comparison.cells[(workload, scheme)] = {
                "completed": result.completed,
                "mean_latency": result.mean_latency,
                "p95_latency": percentile(result.latencies, 95.0),
                "max_latency": max(result.latencies, default=0.0),
                "read_hit_ratio": result.cache_stats["read_hit_ratio"],
                "bypassed": result.bypassed_requests,
                "decisions": len(result.scheme_decisions),
            }
        for scheme in names:
            cell = comparison.cells[(workload, scheme)]
            comparison.checks.append(
                (
                    f"{workload}/{scheme}: completes requests",
                    cell["completed"] > 0,
                )
            )
        if {"wb", "lbica"} <= set(names):
            comparison.checks.append(
                (
                    f"{workload}: lbica mean latency below wb",
                    comparison.cells[(workload, "lbica")]["mean_latency"]
                    < comparison.cells[(workload, "wb")]["mean_latency"],
                )
            )
    return comparison
