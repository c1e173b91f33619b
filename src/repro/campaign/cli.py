"""``repro campaign`` — run, inspect, and diff persistent campaigns.

Examples::

    repro campaign run examples/campaigns/smoke.json --store results/store
    repro campaign run nightly.json --jobs 4      # resumes: hits skip
    repro campaign status nightly.json --store results/store
    repro campaign report nightly.json --store results/store --out report.md
    repro campaign diff results/store results/other-store
    repro campaign diff results/store benchmarks/golden/suite_quick.json
    python -m repro campaign run ...              # module form

``run`` is resumable by construction: every completed scenario lands in
the store, so re-invoking after a crash (or on another day) reports the
finished scenarios as store hits and simulates only the rest.  ``diff``
exits non-zero when any shared scenario's stats diverge — regressions in
latency/load metrics are flagged explicitly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.campaign.report import (
    campaign_report,
    campaign_status,
    diff_fingerprints,
    load_fingerprints,
    status_table,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignError, CampaignSpec, load_campaign
from repro.store.run_store import RunStore, StoreError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run, inspect, and diff persistent experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run (or resume) a campaign against a run store"
    )
    run_p.add_argument("campaign", help="campaign .json file")
    run_p.add_argument(
        "--store",
        default=None,
        help="run-store directory (default: the campaign's own 'store' field)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="processes per shard (default: the campaign's own 'jobs' field)",
    )
    run_p.add_argument(
        "--shard-size",
        type=int,
        default=8,
        help="scenarios per shard (default 8)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    run_p.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "print a live progress line (done/total, wall time, ETA) to "
            "stderr every S seconds while simulating (0 disables)"
        ),
    )

    status_p = sub.add_parser(
        "status", help="which scenarios are stored / missing / corrupt"
    )
    status_p.add_argument("campaign", help="campaign .json file")
    status_p.add_argument("--store", default=None, help="run-store directory")

    report_p = sub.add_parser(
        "report", help="Markdown summary of every stored scenario"
    )
    report_p.add_argument("campaign", help="campaign .json file")
    report_p.add_argument("--store", default=None, help="run-store directory")
    report_p.add_argument(
        "--out", default=None, help="write the report here instead of stdout"
    )

    diff_p = sub.add_parser(
        "diff",
        help=(
            "compare two campaigns' stats (store dirs or golden-format "
            "files such as benchmarks/suite.py --out writes); exit 1 on any "
            "divergence"
        ),
    )
    diff_p.add_argument("side_a", help="baseline: store dir or fingerprint JSON")
    diff_p.add_argument("side_b", help="candidate: store dir or fingerprint JSON")
    diff_p.add_argument(
        "--campaign",
        default=None,
        help=(
            "restrict store sides to this campaign's scenarios (required "
            "when a store holds the same scenario under several configs)"
        ),
    )
    diff_p.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative tolerance for numeric metrics (default 0 = exact)",
    )
    return parser


def _load(path: str) -> CampaignSpec:
    return load_campaign(path)


def _resolve_store(campaign: CampaignSpec, flag: Optional[str]) -> RunStore:
    root = flag or campaign.store
    if not root:
        raise CampaignError(
            f"campaign {campaign.name!r} names no store — pass --store DIR "
            f"or add a 'store' field to the campaign file"
        )
    return RunStore(root)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.jobs is not None and args.jobs < 1:
                print("--jobs must be >= 1", file=sys.stderr)
                return 2
            campaign = _load(args.campaign)
            store = _resolve_store(campaign, args.store)
            if args.heartbeat < 0:
                print("--heartbeat must be non-negative", file=sys.stderr)
                return 2
            run = run_campaign(
                campaign,
                store,
                jobs=args.jobs,
                shard_size=args.shard_size,
                verbose=not args.quiet,
                heartbeat_s=args.heartbeat,
            )
            if args.quiet:
                print(run.summary())
            return 0

        if args.command == "status":
            campaign = _load(args.campaign)
            store = _resolve_store(campaign, args.store)
            statuses = campaign_status(campaign, store)
            print(status_table(statuses))
            n_stored = sum(1 for s in statuses if s.state == "stored")
            print(f"{n_stored}/{len(statuses)} stored in {store.root}")
            return 0

        if args.command == "report":
            campaign = _load(args.campaign)
            store = _resolve_store(campaign, args.store)
            text = campaign_report(campaign, store)
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
                print(f"wrote {args.out}")
            else:
                print(text)
            return 0

        if args.command == "diff":
            campaign = _load(args.campaign) if args.campaign else None
            side_a = load_fingerprints(args.side_a, campaign)
            side_b = load_fingerprints(args.side_b, campaign)
            diff = diff_fingerprints(side_a, side_b, tolerance=args.tolerance)
            print(diff.render())
            return 0 if diff.clean else 1

    except (CampaignError, StoreError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
