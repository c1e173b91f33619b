#!/usr/bin/env python3
"""Deterministic cProfile harness for any registry scenario.

Runs one registered scenario under :mod:`cProfile` and emits three
artifacts into ``--out`` (default ``benchmarks/profiles/``):

- ``<scenario>.pstats`` — the raw profiler dump, loadable with
  ``pstats.Stats`` or snakeviz-style viewers.
- ``<scenario>.collapsed`` — folded-stack lines (``frame;frame count``)
  in the format flamegraph tools consume.  cProfile records a call
  *graph* (caller → callee edges), not full stacks, so the fold is the
  standard two-level approximation: one line per observed caller/callee
  edge weighted by the callee's inline time on that edge, plus one line
  per root frame.  That is exactly the resolution cProfile has; deeper
  stacks would be invented, not measured.
- ``<scenario>.txt`` — the top-frames table that is also printed.

The profiled wall clock is *not* comparable to ``perfbench/`` numbers —
cProfile's tracing hooks inflate this simulator's run loop roughly 4×.
Use ``perfbench/`` for throughput claims and this harness to see where
the time goes.

This file is the repo's only sanctioned import site for ``cProfile`` /
``pstats`` (simlint SL009): profiling stays in the harness, never in
library code, so the hot paths carry no instrumentation hooks.

Usage::

    PYTHONPATH=src python benchmarks/profile.py fig4_single_vm --quick
    PYTHONPATH=src python benchmarks/profile.py consolidated3 \
        --sort cumtime --top 40 --out /tmp/profiles
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

_REPO_ROOT = Path(__file__).resolve().parent.parent

# Running `python benchmarks/profile.py` puts benchmarks/ first on
# sys.path, where this file would shadow the stdlib `profile` module
# that cProfile itself imports.  Drop that entry before importing
# cProfile.
if sys.path and Path(sys.path[0] or ".").resolve() == _REPO_ROOT / "benchmarks":
    sys.path.pop(0)

import cProfile  # noqa: E402  # simlint: ignore[SL009] (sanctioned site)
import pstats  # noqa: E402  # simlint: ignore[SL009] (sanctioned site)

try:  # allow `python benchmarks/profile.py` without PYTHONPATH=src
    import repro  # noqa: F401,E402
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.config import SystemConfig, paper_config, quick_config  # noqa: E402
from repro.scenario import get_scenario, scenario_descriptions  # noqa: E402

DEFAULT_OUT = _REPO_ROOT / "benchmarks" / "profiles"

#: A frame key as pstats stores it: (filename, lineno, funcname).
_Frame = tuple[str, int, str]


def _frame_label(frame: _Frame) -> str:
    """``module.py:123:func`` with the repo prefix stripped."""
    filename, lineno, name = frame
    if filename == "~":  # C builtins have no file
        return name
    path = filename
    for root in (str(_REPO_ROOT) + "/", "src/"):
        if path.startswith(root):
            path = path[len(root) :]
    return f"{path}:{lineno}:{name}"


@dataclass
class ProfileResult:
    """One profiled scenario run plus its rendered artifacts."""

    scenario: str
    quick: bool
    seed: int
    wall_s: float
    events_processed: int
    completed_requests: int
    top_table: str
    collapsed: list[str]
    stats: pstats.Stats

    def write(self, out_dir: Path) -> dict[str, Path]:
        """Write the three artifacts; returns ``{kind: path}``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "pstats": out_dir / f"{self.scenario}.pstats",
            "collapsed": out_dir / f"{self.scenario}.collapsed",
            "table": out_dir / f"{self.scenario}.txt",
        }
        self.stats.dump_stats(str(paths["pstats"]))
        paths["collapsed"].write_text("\n".join(self.collapsed) + "\n")
        paths["table"].write_text(self.top_table + "\n")
        return paths


def collapse_stats(stats: pstats.Stats) -> list[str]:
    """Fold a pstats call graph into flamegraph collapsed-stack lines.

    Weights are integer microseconds of *inline* time (tottime), split
    across caller edges in proportion to the per-edge tottime cProfile
    already attributes.  Frames cProfile saw only as roots (no caller)
    fold to a single-frame line.  Total folded weight equals total
    tottime, so flamegraph widths are faithful to measured inline time.
    """
    lines: list[str] = []
    entries = stats.stats.items()  # {frame: (cc, nc, tt, ct, callers)}
    for frame, (_cc, _nc, tottime, _ct, callers) in entries:
        label = _frame_label(frame)
        if callers:
            for caller, edge in sorted(callers.items()):
                weight = round(edge[2] * 1_000_000)  # per-edge tottime
                if weight > 0:
                    lines.append(f"{_frame_label(caller)};{label} {weight}")
        else:
            weight = round(tottime * 1_000_000)
            if weight > 0:
                lines.append(f"{label} {weight}")
    lines.sort()
    return lines


def top_frames_table(stats: pstats.Stats, top: int = 25, sort: str = "tottime") -> str:
    """Fixed-width top-``top`` frames table sorted by ``sort``."""
    key = {"tottime": 2, "cumtime": 3}[sort]
    rows = sorted(
        (
            (nc, tt, ct, _frame_label(frame))
            for frame, (_cc, nc, tt, ct, _callers) in stats.stats.items()
        ),
        key=lambda row: row[key - 1],
        reverse=True,
    )[:top]
    header = f"{'ncalls':>12} {'tottime':>10} {'cumtime':>10}  function"
    out = [header, "-" * len(header)]
    for nc, tt, ct, label in rows:
        out.append(f"{nc:>12} {tt:>10.4f} {ct:>10.4f}  {label}")
    return "\n".join(out)


def profile_scenario(
    name: str,
    config: Optional[SystemConfig] = None,
    *,
    quick: bool = False,
    seed: int = 7,
    top: int = 25,
    sort: str = "tottime",
) -> ProfileResult:
    """Run registry scenario ``name`` under cProfile.

    ``config`` wins when given; otherwise ``quick``/``seed`` pick
    :func:`quick_config` or :func:`paper_config` — the same configs the
    benchmark suite runs, so profiles answer for the suite's hot path.
    """
    spec = get_scenario(name)  # raises KeyError-style on unknown names
    if config is None:
        config = quick_config(seed) if quick else paper_config(seed)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = spec.run(config=config)
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(profiler)
    return ProfileResult(
        scenario=name,
        quick=quick,
        seed=seed,
        wall_s=wall,
        events_processed=result.events_processed,
        completed_requests=result.completed,
        top_table=top_frames_table(stats, top=top, sort=sort),
        collapsed=collapse_stats(stats),
        stats=stats,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenario",
        help="registered scenario name (see --list)",
        nargs="?",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    parser.add_argument(
        "--quick", action="store_true", help="profile the quick config (CI-sized)"
    )
    parser.add_argument("--seed", type=int, default=7, help="config seed (default 7)")
    parser.add_argument(
        "--top", type=int, default=25, help="rows in the printed table (default 25)"
    )
    parser.add_argument(
        "--sort",
        choices=("tottime", "cumtime"),
        default="tottime",
        help="table sort key (default tottime)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"artifact directory (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    descriptions = scenario_descriptions()
    if args.list:
        for name in sorted(descriptions):
            print(f"{name:28s} {descriptions[name]}")
        return 0
    if args.scenario is None:
        parser.error("scenario name required (or --list)")
    if args.scenario not in descriptions:
        parser.error(
            f"unknown scenario {args.scenario!r}; known: "
            + ", ".join(sorted(descriptions))
        )

    mode = "quick" if args.quick else "paper"
    print(f"[profile] {args.scenario} ({mode} config, seed {args.seed}) ...")
    result = profile_scenario(
        args.scenario, quick=args.quick, seed=args.seed, top=args.top, sort=args.sort
    )
    paths = result.write(args.out)
    rate = result.events_processed / result.wall_s if result.wall_s else 0.0
    print(
        f"[profile] {result.events_processed} events, "
        f"{result.completed_requests} requests in {result.wall_s:.3f}s "
        f"({rate:,.0f} ev/s under the profiler — see module note)"
    )
    print()
    print(result.top_table)
    print()
    for kind, path in sorted(paths.items()):
        print(f"[profile] wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
