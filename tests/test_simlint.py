"""simlint: rules, pragmas, baseline ratchet, registry, and the CLI.

Every rule is exercised against a committed bad/good fixture pair under
``tests/fixtures/simlint/`` (linted as source with an explicit module
name, so scoping is under test too), the pragma and baseline mechanics
are covered both at the API and the CLI layer, and the tree itself must
lint clean — the same gate CI's ``static-analysis`` job runs.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.simlint import (
    LintError,
    Rule,
    Violation,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
    rule_codes,
    rule_descriptions,
)
from repro.devtools.simlint import baseline as baseline_mod
from repro.devtools.simlint import registry as registry_mod
from repro.devtools.simlint.cli import JSON_VERSION, main as lint_main
from repro.devtools.simlint.engine import module_name_for

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "simlint"

#: (fixture stem, module the snippet is linted as, expected code).
RULE_FIXTURES = [
    ("sl001", "repro.sim.fixture", "SL001"),
    ("sl002", "repro.cache.fixture", "SL002"),
    ("sl003", "repro.io.fixture", "SL003"),
    ("sl004", "repro.experiments.fixture", "SL004"),
    ("sl005", "repro.schemes.fixture", "SL005"),
    ("sl006", "repro.experiments.fixture", "SL006"),
    ("sl007", "repro.sim.engine", "SL007"),
    ("sl007_enum", "repro.cache.controller", "SL007"),
    ("sl007_alloc", "repro.io.request", "SL007"),
    ("sl008", "repro.campaign.fixture", "SL008"),
    ("sl009", "benchmarks.suite", "SL009"),
    ("sl010", "repro.sim.engine", "SL010"),
]


def lint_fixture(stem: str, module: str) -> list[Violation]:
    path = FIXTURES / f"{stem}.py"
    return lint_source(path.read_text(), path=path.name, module=module)


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stem,module,code", RULE_FIXTURES)
def test_bad_fixture_flags_expected_code(stem, module, code):
    violations = lint_fixture(f"{stem}_bad", module)
    assert violations, f"{stem}_bad.py should violate {code}"
    assert {v.code for v in violations} == {code}


@pytest.mark.parametrize("stem,module,code", RULE_FIXTURES)
def test_good_fixture_is_clean(stem, module, code):
    assert lint_fixture(f"{stem}_good", module) == []


def test_at_least_eight_rules_registered():
    codes = rule_codes()
    assert len(codes) >= 8
    assert list(codes) == sorted(codes)
    # every rule documents itself
    for code, title in rule_descriptions().items():
        assert title, code
        assert get_rule(code).explanation, code


def test_rules_are_scoped_by_module():
    bad = (FIXTURES / "sl001_bad.py").read_text()
    # outside the sim core the same source is fine ...
    assert lint_source(bad, module="repro.analysis.fixture") == []
    # ... as is the one sanctioned randomness module
    assert lint_source(bad, module="repro.sim.rng") == []
    # and non-repro code is out of scope entirely
    assert lint_source(bad, module="scripts.helper") == []


def test_sl007_only_fires_in_hot_functions():
    bad = (FIXTURES / "sl007_bad.py").read_text()
    # same source under a module with no hot-path entries: clean
    assert lint_source(bad, module="repro.sim.fixture") == []
    violations = lint_source(bad, module="repro.sim.engine")
    messages = " ".join(v.message for v in violations)
    assert "lambda" in messages
    assert "nested function" in messages
    # the discarded .schedule(...) result is not a violation: schedule
    # returns nothing
    assert len(violations) == 2


def test_sl007_flags_enum_member_lookups_in_hot_functions():
    bad = (FIXTURES / "sl007_enum_bad.py").read_text()
    violations = lint_source(bad, module="repro.cache.controller")
    assert sorted(v.message.split()[3] for v in violations) == [
        "OpTag.READ",
        "OpTag.WRITE",
        "WritePolicy.WT",
    ]
    # the same methods outside a hot-path module are not checked
    assert lint_source(bad, module="repro.cache.fixture") == []


def test_sl007_flags_containers_in_per_io_constructors():
    bad = (FIXTURES / "sl007_alloc_bad.py").read_text()
    violations = lint_source(bad, module="repro.io.request")
    assert sorted(v.message for v in violations) == [
        "dict built in a per-IO constructor",
        "list built in a per-IO constructor",
        "list comprehension built in a per-IO constructor",
        "set() called in a per-IO constructor",
    ]
    # the same constructors outside the per-IO modules are not checked
    assert lint_source(bad, module="repro.io.fixture") == []


def test_sl010_guarded_conditional_expression():
    # The true branch of `emit() if guard else default` runs only when
    # the guard holds; the false branch and an unrelated test do not
    # guard anything.
    src = (
        "class ExperimentSystem:\n"
        "    def run(self):\n"
        "        a = self.telemetry.result_section() if self.telemetry is not None else {}\n"
        "        b = {} if self.telemetry is None else self.telemetry.result_section()\n"
        "        c = self.telemetry.result_section() if self.ready else {}\n"
    )
    violations = lint_source(src, module="repro.experiments.system")
    assert [(v.code, v.line) for v in violations] == [("SL010", 4), ("SL010", 5)]


def test_sl007_hot_entries_name_defined_methods():
    # A hot method that is deleted or renamed must fail here instead of
    # quietly dropping out of SL007 (and SL010's module list).
    from repro.devtools.simlint.rules import HotPathRule

    for module, qualname in sorted(HotPathRule._HOT):
        cls_name, fn_name = qualname.split(".")
        path = REPO / "src" / Path(*module.split(".")).with_suffix(".py")
        tree = ast.parse(path.read_text())
        methods = {
            item.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls_name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert fn_name in methods, f"{module} defines no {qualname}"


def test_sl009_sanctioned_only_in_the_harness_module():
    bad = (FIXTURES / "sl009_bad.py").read_text()
    # the harness itself may import the profilers ...
    assert lint_source(bad, module="benchmarks.profile") == []
    # ... and library code is in scope like any other module
    assert [v.code for v in lint_source(bad, module="repro.sim.fixture")] == [
        "SL009",
        "SL009",
    ]
    # the sanctioned name is the one the real harness file maps to
    assert (
        module_name_for(REPO / "benchmarks" / "profile.py", REPO)
        == "benchmarks.profile"
    )


def test_benchmarks_tree_lints_clean():
    # CI lints benchmarks/ alongside src/repro; SL009 holds there today.
    assert lint_paths([REPO / "benchmarks"], root=REPO) == []


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_pragma_suppresses_on_the_violation_line():
    src = "def f(m):\n    print(m)  # simlint: ignore[SL008] progress\n"
    assert lint_source(src, module="repro.campaign.fixture") == []


def test_pragma_for_a_different_code_does_not_suppress():
    src = "def f(m):\n    print(m)  # simlint: ignore[SL001]\n"
    violations = lint_source(src, module="repro.campaign.fixture")
    assert [v.code for v in violations] == ["SL008"]


def test_pragma_star_and_multi_code_forms():
    star = "def f(m):\n    print(m)  # simlint: ignore[*]\n"
    multi = "def f(m):\n    print(m)  # simlint: ignore[SL001, SL008]\n"
    assert lint_source(star, module="repro.campaign.fixture") == []
    assert lint_source(multi, module="repro.campaign.fixture") == []


def test_pragma_on_a_different_line_does_not_suppress():
    src = "# simlint: ignore[SL008]\ndef f(m):\n    print(m)\n"
    violations = lint_source(src, module="repro.campaign.fixture")
    assert [v.code for v in violations] == ["SL008"]


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_syntax_error_raises_lint_error():
    with pytest.raises(LintError):
        lint_source("def f(:\n", module="repro.sim.fixture")


def test_module_name_derivation():
    root = Path("/repo")
    assert module_name_for(Path("/repo/src/repro/sim/engine.py"), root) == (
        "repro.sim.engine"
    )
    assert module_name_for(Path("/repo/src/repro/sim/__init__.py"), root) == (
        "repro.sim"
    )
    assert module_name_for(Path("/repo/tests/test_x.py"), root) == "tests.test_x"


def test_violation_rendering_and_json_record():
    v = Violation(path="a.py", line=3, col=4, code="SL008", message="m")
    assert v.render() == "a.py:3:4: SL008 m"
    assert v.to_dict() == {
        "code": "SL008",
        "path": "a.py",
        "line": 3,
        "col": 4,
        "message": "m",
    }


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
def test_register_rule_rejects_duplicates_and_junk():
    class Clash(Rule):
        code = "SL001"
        title = "clash"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Clash)
    with pytest.raises(TypeError):
        register_rule(object)  # type: ignore[arg-type]

    class NoCode(Rule):
        title = "has no code"

    with pytest.raises(ValueError, match="code"):
        register_rule(NoCode)


def test_custom_rule_registration_roundtrip():
    class TodoRule(Rule):
        code = "SL901"
        title = "no TODO markers"
        explanation = "Fixture rule for the registry test."

        def check(self, ctx):
            for lineno, line in enumerate(ctx.source.splitlines(), start=1):
                if "TODO" in line:
                    yield Violation(ctx.path, lineno, 0, self.code, "todo")

    register_rule(TodoRule)
    try:
        assert get_rule("SL901") is TodoRule
        violations = lint_source("x = 1  # TODO later\n", module="repro.sim.f")
        assert [v.code for v in violations] == ["SL901"]
    finally:
        registry_mod._RULES.table.pop("SL901")


def test_unknown_rule_error_names_the_registry():
    with pytest.raises(ValueError, match="repro.devtools.simlint.registry"):
        get_rule("SL999")


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
def _violations(n, path="mod.py", code="SL008"):
    return [Violation(path, 10 + i, 0, code, "m") for i in range(n)]


def test_baseline_counts_key_on_path_and_code():
    counts = baseline_mod.baseline_counts(_violations(2) + _violations(1, "b.py"))
    assert counts == {"mod.py::SL008": 2, "b.py::SL008": 1}


def test_ratchet_blocks_growth():
    result = baseline_mod.compare(_violations(3), {"mod.py::SL008": 2})
    assert not result.ok
    # the *newest* (highest-line) violation is the one past the budget
    assert [v.line for v in result.new] == [12]
    assert result.stale == {}


def test_ratchet_reports_shrinkage_as_stale():
    result = baseline_mod.compare(_violations(1), {"mod.py::SL008": 3})
    assert result.ok
    assert result.stale == {"mod.py::SL008": 2}
    # a fully-fixed file keeps its key visible until the baseline shrinks
    gone = baseline_mod.compare([], {"mod.py::SL008": 3})
    assert gone.ok and gone.stale == {"mod.py::SL008": 3}


def test_baseline_load_missing_corrupt_and_roundtrip(tmp_path):
    assert baseline_mod.load(tmp_path / "absent.json") == {}
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("not json")
    with pytest.raises(LintError):
        baseline_mod.load(corrupt)
    illtyped = tmp_path / "illtyped.json"
    illtyped.write_text('{"a.py::SL008": 0}')  # zero counts are ill-typed
    with pytest.raises(LintError):
        baseline_mod.load(illtyped)
    path = tmp_path / "base.json"
    baseline_mod.write(path, {"a.py::SL008": 2})
    assert baseline_mod.load(path) == {"a.py::SL008": 2}


# ----------------------------------------------------------------------
# CLI (exit codes, JSON schema, ratchet end-to-end)
# ----------------------------------------------------------------------
@pytest.fixture
def lint_tree(tmp_path, monkeypatch):
    """A throwaway src/repro tree; returns the bad file's path."""
    pkg = tmp_path / "src" / "repro" / "campaign"
    pkg.mkdir(parents=True)
    bad = pkg / "noisy.py"
    bad.write_text("def f(m):\n    print(m)\n")
    (pkg / "quiet.py").write_text("def f(m):\n    return m\n")
    monkeypatch.chdir(tmp_path)
    return bad


def test_cli_exit_codes(lint_tree, capsys):
    assert lint_main(["src/repro/campaign/quiet.py"]) == 0
    assert "clean" in capsys.readouterr().out
    assert lint_main(["src/repro/campaign/noisy.py"]) == 1
    out = capsys.readouterr().out
    assert "SL008" in out and "noisy.py:2:4" in out
    lint_tree.write_text("def f(:\n")
    assert lint_main(["src/repro/campaign/noisy.py"]) == 2


def test_cli_json_schema(lint_tree, capsys):
    assert lint_main(["--json", "src/repro"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == JSON_VERSION
    assert doc["count"] == len(doc["violations"]) == 1
    assert set(doc["rules"]) >= {f"SL00{i}" for i in range(1, 9)}
    assert doc["baseline"] is None and doc["new"] == [] and doc["stale"] == {}
    record = doc["violations"][0]
    assert set(record) == {"code", "path", "line", "col", "message"}
    assert record["path"] == "src/repro/campaign/noisy.py"


def test_cli_baseline_ratchet_end_to_end(lint_tree, tmp_path, capsys):
    base = tmp_path / "baseline.json"
    key = "src/repro/campaign/noisy.py::SL008"
    baseline_mod.write(base, {key: 1})
    # at the baseline: clean
    assert lint_main(["src/repro", "--baseline", str(base)]) == 0
    assert "baseline-clean" in capsys.readouterr().out
    # one more print: the ratchet fails the run
    lint_tree.write_text("def f(m):\n    print(m)\n    print(m)\n")
    assert lint_main(["src/repro", "--baseline", str(base)]) == 1
    assert "new violation" in capsys.readouterr().out
    # fixed entirely: stale headroom is reported, then shrunk away
    lint_tree.write_text("def f(m):\n    return m\n")
    assert lint_main(["src/repro", "--baseline", str(base)]) == 0
    assert "unused" in capsys.readouterr().out
    assert (
        lint_main(["src/repro", "--baseline", str(base), "--update-baseline"]) == 0
    )
    assert baseline_mod.load(base) == {}
    # a corrupt baseline is a hard error, never an empty ratchet
    base.write_text("[]")
    assert lint_main(["src/repro", "--baseline", str(base)]) == 2


def test_cli_update_baseline_requires_baseline(lint_tree):
    with pytest.raises(SystemExit) as exc:
        lint_main(["--update-baseline", "src/repro"])
    assert exc.value.code == 2


def test_cli_explain_and_list_rules(capsys):
    assert lint_main(["--explain", "SL001"]) == 0
    out = capsys.readouterr().out
    assert "SL001" in out and "fingerprint" in out
    assert lint_main(["--explain", "SL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    assert lint_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for code in rule_codes():
        assert code in listing


def test_repro_dispatcher_routes_lint(capsys):
    from repro.__main__ import _USAGE, main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert "SL001" in capsys.readouterr().out
    assert "lint" in _USAGE


# ----------------------------------------------------------------------
# The tree itself and the committed baseline
# ----------------------------------------------------------------------
def test_src_repro_lints_clean_against_committed_baseline():
    violations = lint_paths([REPO / "src" / "repro"], root=REPO)
    baseline = baseline_mod.load(REPO / "simlint-baseline.json")
    result = baseline_mod.compare(violations, baseline)
    assert result.ok, "\n".join(v.render() for v in result.new)
    assert result.stale == {}, "shrink simlint-baseline.json with --update-baseline"


def test_committed_baseline_is_empty():
    # the tree starts debt-free; the ratchet only ever shrinks from here
    assert baseline_mod.load(REPO / "simlint-baseline.json") == {}


# ----------------------------------------------------------------------
# Typing gate config sanity
# ----------------------------------------------------------------------
def test_mypy_config_covers_the_sim_core():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    overrides = config["tool"]["mypy"]["overrides"]
    strict = next(o for o in overrides if o.get("disallow_untyped_defs"))
    assert set(strict["module"]) == {
        "repro.sim.*",
        "repro.cache.*",
        "repro.schemes.*",
        "repro.service.*",
        "repro.store.*",
        "repro.registry",
    }
    for flag in (
        "disallow_incomplete_defs",
        "check_untyped_defs",
        "disallow_any_generics",
        "no_implicit_optional",
        "strict_equality",
    ):
        assert strict[flag] is True, flag
    lax = next(o for o in overrides if o.get("ignore_errors"))
    assert not set(strict["module"]) & set(lax["module"])
    pins = (REPO / "requirements-ci.txt").read_text()
    assert "mypy==" in pins, "CI must pin the mypy the gate runs"
