"""The simlint rule registry: invariant checks by code.

A :class:`repro.registry.Registry`, like the scheme and trace-adapter
registries: rule classes register under their ``code``, the built-ins
load on the first query, duplicates are rejected, and listings are in
code order.  Adding a rule is one class plus one call::

    from repro.devtools.simlint import Rule, Violation, register_rule

    @register_rule
    class NoTodoRule(Rule):
        code = "SL900"
        title = "no TODO comments in sim code"
        explanation = "Why the invariant matters, shown by --explain."

        def check(self, ctx):
            ...yield Violation(...)

after which ``repro lint`` runs it and ``--explain SL900`` documents it.
"""

from __future__ import annotations

from repro.devtools.simlint.engine import Rule
from repro.registry import Registry

__all__ = [
    "register_rule",
    "get_rule",
    "rule_codes",
    "rule_descriptions",
    "all_rules",
    "unknown_rule_error",
]

#: Every built-in rule lives in one module, which imports this one to
#: register, so it loads on the first query: importing
#: :mod:`repro.devtools.simlint` stays cheap, and external rule packages
#: can register before or after the built-ins load.
_RULES = Registry(
    Rule,
    key="code",
    kind="rule",
    source=__name__,
    builtins=dict.fromkeys(
        [f"SL{n:03d}" for n in range(1, 11)], "repro.devtools.simlint.rules"
    ),
    order="code",
)


def register_rule(cls: type[Rule], *, overwrite: bool = False) -> type[Rule]:
    """Register a :class:`Rule` subclass under its declared ``code``.

    Usable as a decorator.  Duplicate codes are rejected (pass
    ``overwrite=True`` to deliberately replace an entry); a built-in
    code is taken even before the built-in rules have loaded.

    Returns:
        ``cls``, unchanged.
    """
    _RULES.check(cls)
    if not cls.title or not isinstance(cls.title, str):
        raise ValueError(f"{cls.__name__}: rule title must be a non-empty string")
    return _RULES.register(cls, overwrite=overwrite)


def unknown_rule_error(code: object) -> ValueError:
    """The canonical unknown-rule error, naming the registry source."""
    return _RULES.unknown(code)


def get_rule(code: str) -> type[Rule]:
    """The registered rule class for ``code``.

    Raises:
        ValueError: Naming the registry and listing every registered
            rule — the error an unknown ``--explain`` argument surfaces.
    """
    return _RULES.get(code)


def rule_codes() -> tuple[str, ...]:
    """Every registered rule code, sorted."""
    return _RULES.keys()


def rule_descriptions() -> dict[str, str]:
    """Every registered rule with its one-line title."""
    return {code: cls.title for code, cls in _RULES.items()}


def all_rules() -> tuple[Rule, ...]:
    """One instance of every registered rule, in code order."""
    return tuple(cls() for _, cls in _RULES.items())
