"""Shared machinery for the figure generators.

Every ``figN`` module produces a :class:`FigureResult`: the per-interval
(or per-bar) data, an ASCII rendering (there is no matplotlib in this
environment), optional CSV artifacts, and a set of named *shape checks* —
the qualitative properties of the paper's figure that the reproduction is
expected to preserve (who is highest, who is lowest, where the crossovers
are).  The experiments CLI's exit code and ``tests/test_paper_scale.py``
consume the shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.series import IntervalSeries, write_series_csv

__all__ = ["FigureResult", "ShapeCheck", "save_figure_artifacts"]


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative property of a paper figure."""

    name: str
    paper_statement: str
    measured_statement: str
    passed: bool


@dataclass
class FigureResult:
    """Everything one figure generator produces."""

    figure_id: str
    title: str
    ascii_chart: str
    series: dict[str, list[IntervalSeries]] = field(default_factory=dict)
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check held."""
        return all(c.passed for c in self.checks)

    def checks_table(self) -> str:
        """Render the shape checks as a fixed-width table."""
        from repro.analysis.report import format_table

        return format_table(
            ["check", "paper", "measured", "ok"],
            [
                (c.name, c.paper_statement, c.measured_statement, "PASS" if c.passed else "FAIL")
                for c in self.checks
            ],
            title=f"{self.figure_id} shape checks",
        )


def save_figure_artifacts(
    result: FigureResult, out_dir: Optional[str | Path]
) -> list[Path]:
    """Write the figure's CSVs and ASCII chart under ``out_dir``.

    Returns the paths written (empty when ``out_dir`` is ``None``).
    """
    if out_dir is None:
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for panel, series in result.series.items():
        path = out / f"{result.figure_id}_{panel}.csv"
        write_series_csv(path, series)
        written.append(path)
    txt = out / f"{result.figure_id}.txt"
    txt.write_text(
        result.title
        + "\n\n"
        + result.ascii_chart
        + "\n\n"
        + result.checks_table()
        + "\n",
        encoding="utf-8",
    )
    written.append(txt)
    return written
