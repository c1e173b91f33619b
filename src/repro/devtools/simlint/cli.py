"""``repro lint`` — the simlint command line.

Exit codes: 0 clean (or baseline-clean), 1 violations (new violations
when a baseline is given), 2 usage / parse / baseline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import repro.devtools.simlint.baseline as baseline_mod
from repro.devtools.simlint.engine import LintError, lint_paths
from repro.devtools.simlint.registry import (
    get_rule,
    rule_codes,
    rule_descriptions,
)

__all__ = ["build_parser", "main"]

#: JSON output schema version (bump on breaking field changes).
JSON_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST invariant linter for the simulation core "
            "(rules: repro.devtools.simlint)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="ratchet against FILE: only violations beyond it fail",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE to current counts (shrink only "
        "unless new violations are also present)",
    )
    parser.add_argument(
        "--explain", metavar="CODE", help="print a rule's rationale and exit"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def _explain(code: str) -> int:
    try:
        cls = get_rule(code)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{cls.code}: {cls.title}\n")
    print(cls.explanation)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        for code, title in rule_descriptions().items():
            print(f"{code}  {title}")
        return 0
    if args.update_baseline and not args.baseline:
        parser.error("--update-baseline requires --baseline FILE")

    try:
        violations = lint_paths([Path(p) for p in args.paths])
        baseline = (
            baseline_mod.load(Path(args.baseline)) if args.baseline else {}
        )
    except LintError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    # Without a baseline the ratchet fields stay empty in the JSON doc:
    # "new" means "beyond the baseline", not "every violation".
    result = (
        baseline_mod.compare(violations, baseline)
        if args.baseline
        else baseline_mod.BaselineResult()
    )
    failing = result.new if args.baseline else list(violations)

    if args.baseline and args.update_baseline:
        baseline_mod.write(
            Path(args.baseline), baseline_mod.baseline_counts(violations)
        )

    if args.json:
        doc = {
            "version": JSON_VERSION,
            "rules": list(rule_codes()),
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
            "baseline": args.baseline,
            "new": [v.to_dict() for v in result.new],
            "stale": dict(sorted(result.stale.items())),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for v in failing:
            print(v.render())
        if args.baseline:
            for key, headroom in sorted(result.stale.items()):
                print(
                    f"note: baseline entry {key} has {headroom} unused "
                    "slot(s); shrink with --update-baseline"
                )
        if failing:
            label = "new violation(s)" if args.baseline else "violation(s)"
            print(f"simlint: {len(failing)} {label}")
        else:
            suffix = " (baseline-clean)" if args.baseline else ""
            print(f"simlint: clean{suffix}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
