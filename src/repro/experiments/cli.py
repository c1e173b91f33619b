"""Command-line entry point: regenerate any paper figure from a terminal.

Examples::

    lbica-experiments fig4                 # cache-load curves, all workloads
    lbica-experiments fig6 --workloads mail
    lbica-experiments all --out results/   # every figure + headline + CSVs
    lbica-experiments ablation --workloads mail
    lbica-experiments all --jobs 4         # fan the grid out across processes
    lbica-experiments fig4 --workloads consolidated3   # multi-VM scenario
    lbica-experiments fig7 --vms tpcc web  # ad-hoc consolidation of 2 VMs
    lbica-experiments --list-workloads     # registered workloads + one-liners
    lbica-experiments --list-scenarios     # registered scenario specs
    lbica-experiments --list-schemes       # registered allocation schemes
    lbica-experiments schemes --quick      # 5-scheme latency/hit-ratio table
    lbica-experiments --scenario examples/scenarios/consolidated3.json
    lbica-experiments --dump-scenario consolidated3 > my_scenario.json
    lbica-experiments campaign run examples/campaigns/smoke.json \
        --store results/store              # persistent campaigns (see
                                           # repro.campaign.cli)
    python -m repro.experiments fig7       # module form

Each figure prints its ASCII chart and shape-check table; ``--out``
additionally writes CSV and text artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.config import paper_config, quick_config
from repro.experiments.ablation import run_ablations
from repro.experiments.fig4 import generate_fig4
from repro.experiments.fig5 import generate_fig5
from repro.experiments.fig6 import generate_fig6
from repro.experiments.fig7 import generate_fig7
from repro.experiments.figures import save_figure_artifacts
from repro.experiments.headline import generate_headline
from repro.experiments.runner import PAPER_WORKLOADS, ExperimentRunner, run_spec_grid
from repro.experiments.scheme_compare import generate_scheme_compare
from repro.experiments.system import (
    SCHEMES,
    register_consolidation,
    resolve_workload_name,
    workload_descriptions,
)
from repro.scenario.fingerprint import stats_fingerprint
from repro.scenario.registry import get_scenario, scenario_descriptions
from repro.scenario.spec import load_scenario
from repro.schemes.registry import scheme_descriptions, scheme_names

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig4": generate_fig4,
    "fig5": generate_fig5,
    "fig6": generate_fig6,
    "fig7": generate_fig7,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="lbica-experiments",
        description="Regenerate the LBICA paper's figures on the simulator.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=[*sorted(_FIGURES), "headline", "ablation", "schemes", "all"],
        help=(
            "which figure/report to regenerate ('schemes' compares every "
            "registered scheme, not just the paper trio)"
        ),
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="print every registered workload with its one-line description and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print every registered scenario with its one-line description and exit",
    )
    parser.add_argument(
        "--list-schemes",
        action="store_true",
        help="print every registered scheme with its one-line description and exit",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE.json",
        help=(
            "run a declarative scenario file (sweeps are expanded into a "
            "grid; --jobs fans the grid across processes) and exit"
        ),
    )
    parser.add_argument(
        "--dump-scenario",
        default=None,
        metavar="NAME",
        help="print a registered scenario as JSON (a template for --scenario) and exit",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(PAPER_WORKLOADS),
        help=f"workload subset (default: {' '.join(PAPER_WORKLOADS)})",
    )
    parser.add_argument(
        "--out", default=None, help="directory for CSV/text artifacts"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down configuration (shorter intervals; CI-friendly)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root random seed (default 7)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    parser.add_argument(
        "--vms",
        nargs="+",
        default=None,
        metavar="WORKLOAD",
        help=(
            "consolidate these workloads as VMs on one shared cache and "
            "run the figures on that scenario (repeats allowed)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes for the simulation grid (default 1 = serial)",
    )
    return parser


def _print_descriptions(descriptions: dict) -> None:
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        print(f"{name:<{width}}  {description}")


def _run_scenario_file(
    path: str,
    jobs: int = 1,
    quiet: bool = False,
    quick: bool = False,
    seed: Optional[int] = None,
) -> int:
    """Run one scenario file (expanding sweeps); prints each result.

    ``quick``/``seed`` override the file's base preset and seed, so the
    flags mean the same thing with ``--scenario`` as everywhere else.
    """
    try:
        spec = load_scenario(path)
        if quick:
            spec.base = "quick"
        if seed is not None:
            spec = spec.with_value("system.seed", seed)
        spec.validate()
        specs = spec.expand()
    except (ValueError, OSError) as exc:
        # ValueError covers ScenarioError and the workload layer's
        # SpecError — any malformed file exits 2 before simulating
        print(str(exc), file=sys.stderr)
        return 2
    results = run_spec_grid(specs, max_workers=jobs, verbose=not quiet)
    for name, result in results.items():
        print(f"=== {name} ===")
        print(result.summary())
        if len(result.tenant_stats) > 1:
            print(result.tenant_table())
        fingerprint = stats_fingerprint(result)
        print(
            f"fingerprint: completed={fingerprint['completed']} "
            f"events={fingerprint['events_processed']} "
            f"mean_latency={fingerprint['mean_latency']:.3f}µs"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list and args_list[0] == "campaign":
        # persistent campaigns have their own subcommand tree; delegate
        # before argparse sees the figure-target grammar
        from repro.campaign.cli import main as campaign_main

        return campaign_main(args_list[1:])
    parser = build_parser()
    args = parser.parse_args(args_list)
    if args.list_workloads:
        _print_descriptions(workload_descriptions())
        return 0
    if args.list_scenarios:
        _print_descriptions(scenario_descriptions())
        return 0
    if args.list_schemes:
        _print_descriptions(scheme_descriptions())
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if (args.scenario is not None or args.dump_scenario is not None) and (
        args.target is not None
    ):
        parser.error(
            "--scenario/--dump-scenario run instead of a figure target; "
            "drop one or the other"
        )
    if args.dump_scenario is not None:
        try:
            print(get_scenario(args.dump_scenario).to_json())
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    if args.scenario is not None:
        return _run_scenario_file(
            args.scenario,
            jobs=args.jobs,
            quiet=args.quiet,
            quick=args.quick,
            seed=args.seed,
        )
    if args.target is None:
        parser.error(
            "a target is required (or use --list-workloads / --list-scenarios "
            "/ --scenario / --dump-scenario)"
        )
    seed = 7 if args.seed is None else args.seed
    config = quick_config(seed) if args.quick else paper_config(seed)
    runner = ExperimentRunner(config, verbose=not args.quiet)
    workloads = tuple(args.workloads)
    if args.vms:
        try:
            workloads = (register_consolidation(args.vms),)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    try:
        for workload in workloads:
            resolve_workload_name(workload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.jobs > 1 and args.target != "ablation":
        # pre-simulate the grid in parallel; figures and the reports
        # then read the memo cache (ablation builds its own systems and
        # never consults the runner).  The scheme comparison spans the
        # whole registry, not just the paper trio.
        grid_schemes = scheme_names() if args.target == "schemes" else SCHEMES
        runner.run_many(workloads, grid_schemes, max_workers=args.jobs)

    targets = sorted(_FIGURES) if args.target == "all" else [args.target]
    if args.target == "all":
        targets += ["headline"]

    failed = False
    for target in targets:
        if target == "headline":
            report = generate_headline(runner, workloads)
            print(report.table())
            failed = failed or not report.all_directions_hold
            continue
        if target == "schemes":
            comparison = generate_scheme_compare(runner, workloads)
            print(comparison.table())
            print()
            print(comparison.checks_table())
            failed = failed or not comparison.all_passed
            continue
        if target == "ablation":
            result = run_ablations(workloads[0], config)
            print(result.table())
            continue
        fig = _FIGURES[target](runner, workloads)
        print(fig.ascii_chart)
        print()
        print(fig.checks_table())
        print()
        save_figure_artifacts(fig, args.out)
        failed = failed or not fig.all_passed

    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
