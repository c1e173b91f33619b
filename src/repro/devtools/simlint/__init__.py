"""simlint: the AST invariant linter behind ``repro lint``.

The golden-fingerprint suite catches determinism breakage *dynamically*
— hours later, and only for scenarios it happens to run.  simlint
enforces the invariants statically, at lint time:

- :mod:`repro.devtools.simlint.engine` — :class:`FileContext`,
  :class:`Violation`, ``# simlint: ignore[CODE]`` pragmas, the driver;
- :mod:`repro.devtools.simlint.registry` — ``register_rule`` and rule
  lookup (a :class:`repro.registry.Registry`, like the scheme registry);
- :mod:`repro.devtools.simlint.rules` — the built-in SL001–SL010 rules;
- :mod:`repro.devtools.simlint.baseline` — the count-based ratchet
  behind ``--baseline`` / ``--update-baseline``;
- :mod:`repro.devtools.simlint.cli` — ``repro lint``.

Quickstart::

    from repro.devtools.simlint import lint_source

    for v in lint_source("import random\\n", module="repro.sim.fixture"):
        print(v.render())           # SL001 ...
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devtools.simlint.baseline import BaselineResult, compare
    from repro.devtools.simlint.engine import (
        FileContext,
        LintError,
        Rule,
        Violation,
        lint_paths,
        lint_source,
    )
    from repro.devtools.simlint.registry import (
        get_rule,
        register_rule,
        rule_codes,
        rule_descriptions,
    )

__all__ = [
    "BaselineResult",
    "FileContext",
    "LintError",
    "Rule",
    "Violation",
    "compare",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_codes",
    "rule_descriptions",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.devtools.simlint.baseline": ("BaselineResult", "compare"),
        "repro.devtools.simlint.engine": (
            "FileContext",
            "LintError",
            "Rule",
            "Violation",
            "lint_paths",
            "lint_source",
        ),
        "repro.devtools.simlint.registry": (
            "get_rule",
            "register_rule",
            "rule_codes",
            "rule_descriptions",
        ),
    },
)
