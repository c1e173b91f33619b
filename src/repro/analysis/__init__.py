"""Analysis utilities: metrics, interval series, reports, ASCII plots.

- :mod:`repro.analysis.metrics` — latency statistics (mean / percentile /
  max) and the load-reduction computations behind the paper's headline
  percentages.
- :mod:`repro.analysis.series` — :class:`~repro.analysis.series.IntervalSeries`
  containers extracted from iostat samples (the per-interval curves of
  Figures 4–6) with CSV export.
- :mod:`repro.analysis.report` — fixed-width comparison tables and
  paper-vs-measured rows for EXPERIMENTS.md.
- :mod:`repro.analysis.ascii_plot` — terminal line and bar charts (the
  environment has no matplotlib; figures render as ASCII + CSV).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.ascii_plot import ascii_bar_chart, ascii_line_chart
    from repro.analysis.metrics import (
        LatencySummary,
        latency_summary,
        load_reduction,
        percentile,
    )
    from repro.analysis.report import comparison_table, format_table
    from repro.analysis.series import IntervalSeries, series_from_samples

__all__ = [
    "LatencySummary",
    "latency_summary",
    "percentile",
    "load_reduction",
    "IntervalSeries",
    "series_from_samples",
    "comparison_table",
    "format_table",
    "ascii_line_chart",
    "ascii_bar_chart",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.ascii_plot": ("ascii_bar_chart", "ascii_line_chart"),
        "repro.analysis.metrics": (
            "LatencySummary",
            "latency_summary",
            "load_reduction",
            "percentile",
        ),
        "repro.analysis.report": ("comparison_table", "format_table"),
        "repro.analysis.series": ("IntervalSeries", "series_from_samples"),
    },
)
