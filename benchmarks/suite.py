#!/usr/bin/env python3
"""Golden-fingerprint gate over the canonical scenarios.

Runs each scenario with a fixed seed and records its deterministic
stats fingerprint (no timing).  The golden files under
``benchmarks/golden/`` pin those fingerprints: an optimization must
reproduce them bit-for-bit or ``--golden`` (and the tier-1 golden
tests) fail.  Timing lives in ``perfbench/``, the repository benchmark.

Scenarios:

- ``fig4_single_vm`` — the canonical single-VM run (TPC-C under LBICA,
  the Fig. 4 configuration).
- ``consolidated3`` — three VMs (TPC-C + mail + web) contending for one
  shared cache under LBICA.
- ``bootstorm_neighbors`` — a VM boot storm landing beside a steady web
  server, under LBICA.
- ``consolidated3_partition`` — the three-VM scenario with statically
  partitioned fair cache shares.
- ``consolidated3_dynshare`` — the three-VM scenario under the
  efficiency-aware dynamic share allocator.
- ``grid_fanout`` — the full 3×3 (workload × scheme) grid through
  ``run_grid(max_workers=N)``, exercising the parallel process fan-out.
- ``trace_replay_stream`` — streaming trace replay at production scale:
  a synthetic trace (10M IOs at paper scale, 150k at ``--quick``) is
  generated lazily and replayed chunk-by-chunk through the simulator.
  The scenario *fails* if the process RSS delta across the replay
  exceeds a fixed budget — the guard that pins replay memory as
  independent of trace length.

Usage::

    PYTHONPATH=src python benchmarks/suite.py --quick \
        --golden benchmarks/golden/suite_quick.json       # CI gate
    PYTHONPATH=src python benchmarks/suite.py \
        --golden benchmarks/golden/suite_paper.json       # nightly gate
    PYTHONPATH=src python benchmarks/suite.py --quick \
        --out benchmarks/golden/suite_quick.json          # refresh

``--out`` writes the run in the golden format, so refreshing a golden
after a deliberate behaviour change is a plain ``--out`` onto it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

_REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # allow `python benchmarks/suite.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.config import SystemConfig, paper_config, quick_config
from repro.experiments.runner import PAPER_WORKLOADS, run_grid
from repro.experiments.system import SCHEMES
from repro.scenario import get_scenario, stats_fingerprint

__all__ = ["SCENARIOS", "run_scenario", "run_suite", "compare_goldens", "main"]


def _run_single(scenario_name: str, config: SystemConfig, jobs: int) -> dict:
    """One registry scenario under the suite's config."""
    return stats_fingerprint(get_scenario(scenario_name).run(config=config))


def _current_rss_kb() -> int:
    """Current (not peak) RSS in KiB; 0 where /proc is unavailable."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 0


#: Allowed RSS growth across the replay run (KiB).  Streaming replay
#: holds one ~4k-record chunk at a time, so real growth is near zero;
#: materializing the 10M-record trace would add gigabytes.  256 MiB
#: leaves generous allocator headroom while still failing hard on any
#: return to materialization.
_REPLAY_RSS_BUDGET_KB = 256 * 1024


def _run_trace_replay(config: SystemConfig, jobs: int) -> dict:
    """Streaming replay of a synthetic production-scale trace.

    The trace never exists as a file or a list: ``synthetic_trace``
    yields records lazily and :class:`ReplayWorkload` pulls them through
    the chunked scheduler.  The RSS guard raises (failing the suite) if
    memory grows with trace length.
    """
    from repro.sim.engine import Simulator
    from repro.trace.synth import synthetic_trace
    from repro.workloads.replay import ReplayWorkload

    quick = config.interval_us <= 15_000.0
    n = 150_000 if quick else 10_000_000
    mean_gap_us = 50.0  # 20k IOPS mean arrival rate
    rss_before = _current_rss_kb()
    sim = Simulator()
    workload = ReplayWorkload(
        synthetic_trace(n, seed=int(config.seed), mean_gap_us=mean_gap_us),
        duration_us=n * mean_gap_us * 1.5,
    )
    submitted = [0]

    def sink(request) -> None:
        submitted[0] += 1

    workload.bind(sim, sink)
    sim.run()
    rss_delta = max(0, _current_rss_kb() - rss_before)
    if rss_delta > _REPLAY_RSS_BUDGET_KB:
        raise RuntimeError(
            f"trace_replay_stream: RSS grew {rss_delta} KiB over the "
            f"{_REPLAY_RSS_BUDGET_KB} KiB budget while replaying {n} IOs "
            f"— streaming replay must not materialize the trace"
        )
    wl_stats = workload.stats
    # "scheme"/"completed" match the fingerprint shape the campaign
    # diff loader recognises, even though no cache scheme runs here.
    return {
        "scheme": "none",
        "completed": submitted[0],
        "generated": wl_stats.generated,
        "reads": wl_stats.reads,
        "writes": wl_stats.writes,
        "finished": wl_stats.finished,
        "last_arrival_us": round(sim.now, 3),
    }


def _run_grid_fanout(config: SystemConfig, jobs: int) -> dict:
    grid = run_grid(PAPER_WORKLOADS, SCHEMES, config=config, max_workers=jobs)
    return {f"{wl}/{sc}": stats_fingerprint(r) for (wl, sc), r in sorted(grid.items())}


#: name -> factory(config, jobs) -> stats fingerprint.  The single-run
#: entries are registered :class:`ScenarioSpec`s by the same name;
#: ``grid_fanout`` is the parallel (workload × scheme) grid.
SCENARIOS: dict[str, Callable[[SystemConfig, int], dict]] = {
    **{
        name: partial(_run_single, name)
        for name in (
            "fig4_single_vm",
            "consolidated3",
            "bootstorm_neighbors",
            "consolidated3_partition",
            "consolidated3_dynshare",
        )
    },
    "grid_fanout": _run_grid_fanout,
    "trace_replay_stream": _run_trace_replay,
}


def run_scenario(name: str, config: SystemConfig, jobs: int = 2) -> dict:
    """Run one named scenario; returns its stats fingerprint."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](config, jobs)


def run_suite(
    quick: bool = False,
    seed: int = 7,
    jobs: int = 2,
    scenarios: Optional[Sequence[str]] = None,
    verbose: bool = True,
) -> dict:
    """Run the suite and return its golden-format document."""
    config = quick_config(seed) if quick else paper_config(seed)
    fingerprints = {}
    for name in scenarios or SCENARIOS:
        if verbose:
            print(f"[suite] {name} ...", flush=True)
        fingerprints[name] = run_scenario(name, config, jobs)
    doc = {
        "config": "quick" if quick else "paper",
        "seed": seed,
        "scenarios": fingerprints,
    }
    return json.loads(json.dumps(doc))  # compare like the on-disk goldens


def compare_goldens(doc: dict, golden: dict) -> list[str]:
    """Divergences of the scenarios that ran (empty = all match).

    A scenario the golden does not pin is a divergence too; a golden
    entry for a scenario that did not run is not checked.
    """
    problems: list[str] = []
    for key in ("config", "seed"):
        if doc[key] != golden.get(key):
            problems.append(
                f"{key}: golden {golden.get(key)!r} vs current {doc[key]!r}"
            )
    pinned = golden.get("scenarios", {})
    for name, got in doc["scenarios"].items():
        want = pinned.get(name)
        if want is None:
            problems.append(f"scenario {name}: no golden entry")
        elif got != want:
            diverging = sorted(
                field
                for field in set(want) | set(got)
                if want.get(field) != got.get(field)
            )
            problems.append(f"scenario {name}: stats diverge in {diverging}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Run the canonical scenarios and check their stats "
        "fingerprints against a golden file."
    )
    parser.add_argument("--quick", action="store_true", help="CI-scale configuration")
    parser.add_argument("--seed", type=int, default=7, help="root seed (default 7)")
    parser.add_argument(
        "--jobs", type=int, default=2, help="workers for grid_fanout (default 2)"
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=sorted(SCENARIOS),
        help="scenario subset (default: all)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the fingerprints here in the golden format",
    )
    parser.add_argument(
        "--golden",
        default=None,
        help="compare the fingerprints of the scenarios that ran against "
        "this golden file; exit 1 on divergence",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    doc = run_suite(
        quick=args.quick, seed=args.seed, jobs=args.jobs, scenarios=args.scenarios
    )
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"[suite] wrote {out_path}")

    if args.golden:
        golden = json.loads(Path(args.golden).read_text())
        problems = compare_goldens(doc, golden)
        if problems:
            for p in problems:
                print(f"[suite] GOLDEN DIVERGENCE: {p}", file=sys.stderr)
            return 1
        print(f"[suite] stats match golden {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
