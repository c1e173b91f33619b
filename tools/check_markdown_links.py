#!/usr/bin/env python3
"""Check that intra-repo markdown links and named files exist.

Scans markdown files for inline links (``[text](target)``), skips
external targets (``http(s)://``, ``mailto:``) and pure fragments
(``#section``), and verifies every remaining target exists relative to
the linking file (path fragments like ``docs/FILE.md#anchor`` are
checked against the file part only; anchor validity is out of scope).

It also checks the files the docs name in code: every word of a code
span or fenced block that is a ``.py``, ``.json`` or ``.md`` path under
one of the repository's top-level code and doc directories must exist
relative to the repository root.  Templates and globs (words containing
``*``, ``{`` or ``<``) are skipped, and a pytest node id
(``tests/test_x.py::TestY``) is checked by its file part.

Usage::

    python tools/check_markdown_links.py README.md docs/*.md
    python tools/check_markdown_links.py          # the default doc set

Importable: :func:`broken_links` and :func:`missing_paths` power the
tier-1 docs test; the CLI exits 1 and lists every problem.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation set checked when the CLI gets no arguments.
DEFAULT_DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/TRACES.md",
)

#: Inline markdown links: ``[text](target)``.  Reference-style links and
#: autolinks are not used in this repo's docs.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_EXTERNAL = ("http://", "https://", "mailto:")

#: Where a named file must live, and which files are checked.
_PATH_DIRS = (
    "src/",
    "tests/",
    "benchmarks/",
    "examples/",
    "tools/",
    "docs/",
    "perfbench/",
)
_PATH_SUFFIXES = (".py", ".json", ".md")

_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN_RE = re.compile(r"(?<!`)`([^`]+)`(?!`)")


def broken_links(paths: Iterable[Path]) -> list[str]:
    """``"file: target"`` for every intra-repo link that does not resolve."""
    problems: list[str] = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(f"{path}: {target}")
    return problems


def _code_words(text: str) -> Iterator[str]:
    """Every whitespace-separated word of the fenced blocks and code spans."""
    for block in _FENCE_RE.findall(text):
        yield from block.split()
    for span in _SPAN_RE.findall(_FENCE_RE.sub("", text)):
        yield from span.split()


def missing_paths(paths: Iterable[Path], root: Path = REPO_ROOT) -> list[str]:
    """``"file: path"`` for every file named in code that ``root`` lacks."""
    problems: list[str] = []
    for path in paths:
        for word in _code_words(path.read_text(encoding="utf-8")):
            target = word.split("::", 1)[0]
            if (
                target.startswith(_PATH_DIRS)
                and target.endswith(_PATH_SUFFIXES)
                and not any(c in target for c in "*{<")
                and not (root / target).exists()
            ):
                problems.append(f"{path}: {target}")
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(a) for a in args] if args else [REPO_ROOT / d for d in DEFAULT_DOCS]
    missing = [p for p in paths if not p.is_file()]
    if missing:
        for p in missing:
            print(f"no such markdown file: {p}", file=sys.stderr)
        return 2
    problems = [f"BROKEN LINK {problem}" for problem in broken_links(paths)]
    problems += [f"MISSING FILE {problem}" for problem in missing_paths(paths)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"checked {len(paths)} file(s): all intra-repo links resolve and "
        "every file named in code exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
