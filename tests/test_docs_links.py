"""Tier-1 guard for the docs: every intra-repo markdown link resolves and
every file the docs name in code exists."""

import importlib.util
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_markdown_links", _REPO / "tools" / "check_markdown_links.py"
)
linkcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linkcheck)


def test_default_doc_set_exists():
    for doc in linkcheck.DEFAULT_DOCS:
        assert (_REPO / doc).is_file(), doc


def test_no_broken_links_in_default_docs():
    paths = [_REPO / doc for doc in linkcheck.DEFAULT_DOCS]
    assert linkcheck.broken_links(paths) == []
    assert linkcheck.missing_paths(paths) == []


def test_broken_link_detected(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ok](existing.md) and [bad](missing.md) and "
        "[ext](https://example.com) and [frag](#section)\n"
    )
    (tmp_path / "existing.md").write_text("hi\n")
    problems = linkcheck.broken_links([doc])
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_anchor_suffix_checks_file_part_only(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("[sect](other.md#some-anchor)\n")
    (tmp_path / "other.md").write_text("hi\n")
    assert linkcheck.broken_links([doc]) == []


def test_cli_reports_success(capsys):
    assert linkcheck.main([]) == 0
    assert "all intra-repo links resolve" in capsys.readouterr().out


def test_cli_missing_input(tmp_path, capsys):
    assert linkcheck.main([str(tmp_path / "nope.md")]) == 2


def test_missing_file_named_in_code_detected(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_ok.py").write_text("")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`src/ok.py`, `tests/test_ok.py::TestOk`, `tests/gone.py`,\n"
        "`python\nbenchmarks/split.py --quick`, `docs/*.md`, `<dir>/x.json`,\n"
        "`examples/{a,b}.json`, `notes/gone.py`, `src/repro/sim` and\n"
        "`perfbench/gone.txt` are named here.\n"
        "```bash\npython tools/gone.py --flag\n```\n"
    )
    problems = linkcheck.missing_paths([doc], root=tmp_path)
    assert sorted(p.split(": ", 1)[1] for p in problems) == [
        "benchmarks/split.py",
        "tests/gone.py",
        "tools/gone.py",
    ]


def test_cli_fails_on_doc_naming_a_deleted_file(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text("Run `PYTHONPATH=src python benchmarks/bench_headline.py`.\n")
    assert linkcheck.main([str(doc)]) == 1
    assert "benchmarks/bench_headline.py" in capsys.readouterr().err
