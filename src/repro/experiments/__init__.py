"""Experiment harness: one module per paper figure.

- :mod:`repro.experiments.system` — builds a runnable (workload × scheme)
  stack from a :class:`~repro.config.SystemConfig`.
- :mod:`repro.experiments.runner` — runs grids and caches results.
- :mod:`repro.experiments.fig4` / :mod:`~repro.experiments.fig5` — cache
  and disk load curves (max latency per interval) for WB / SIB / LBICA.
- :mod:`repro.experiments.fig6` — LBICA's burst-detection and policy
  timeline.
- :mod:`repro.experiments.fig7` — average latency bars.
- :mod:`repro.experiments.headline` — the paper's headline percentages.
- :mod:`repro.experiments.ablation` — design-choice ablations (policy
  table vs. fixed policies, tail bypass on/off, replacement sweep,
  strict WT+WO SIB).
- :mod:`repro.experiments.cli` — ``python -m repro.experiments`` entry.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.experiments.ablation import run_ablations, run_disk_headroom_sweep
    from repro.experiments.repeat import run_repeated
    from repro.experiments.report_md import generate_markdown_report
    from repro.experiments.runner import ExperimentRunner, run_grid
    from repro.experiments.system import SCHEMES, WORKLOADS, ExperimentSystem, RunResult

__all__ = [
    "ExperimentSystem",
    "RunResult",
    "ExperimentRunner",
    "run_grid",
    "run_ablations",
    "run_disk_headroom_sweep",
    "run_repeated",
    "generate_markdown_report",
    "SCHEMES",
    "WORKLOADS",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.experiments.ablation": ("run_ablations", "run_disk_headroom_sweep"),
        "repro.experiments.repeat": ("run_repeated",),
        "repro.experiments.report_md": ("generate_markdown_report",),
        "repro.experiments.runner": ("ExperimentRunner", "run_grid"),
        "repro.experiments.system": (
            "SCHEMES",
            "WORKLOADS",
            "ExperimentSystem",
            "RunResult",
        ),
    },
)
