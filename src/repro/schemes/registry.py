"""The scheme registry: allocation schemes by name.

This is the single source of truth for which schemes exist.  Everything
that used to hardcode the paper's three names — scenario validation,
``ExperimentSystem`` construction, the CLI — resolves through here, and
:data:`repro.experiments.system.SCHEMES` (the paper's comparison trio
the default figure grids iterate) is *derived* from the registry's
``paper_baseline`` flags rather than spelled out.

Adding a competitor scheme is therefore one class plus one call::

    from repro.schemes import Scheme, register_scheme

    @register_scheme
    class NoopScheme(Scheme):
        name = "noop"
        description = "Does nothing (an example)."

        def start(self):
            pass

after which ``ScenarioSpec(scheme="noop")``, ``--list-schemes``, and
campaign sweeps over ``scheme`` all pick it up.

Each built-in scheme registers itself at the bottom of its own module.
The registry maps each built-in name to that module and imports it on
the first lookup of the name, so building a system loads only the
scheme it runs; the listing queries (:func:`scheme_names`,
:func:`paper_schemes`, :func:`scheme_descriptions`) load all of them.
Scheme configs live apart, in :mod:`repro.schemes.configs`, so
:mod:`repro.config` imports no scheme implementation either.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Optional

from repro.schemes.base import Scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = [
    "register_scheme",
    "get_scheme",
    "scheme_names",
    "paper_schemes",
    "scheme_descriptions",
    "build_scheme",
]

#: Registered scheme classes by name.  Treat as read-only; use
#: :func:`register_scheme` to add entries.  Query order is by each
#: class's ``registry_order`` (ties broken by registration order), so
#: the paper trio lists first regardless of import order.
_REGISTRY: dict[str, type[Scheme]] = {}

#: Built-in scheme name -> the module whose import registers it.  The
#: modules import :mod:`repro.schemes.registry` to register, so they are
#: imported on demand rather than from here.
_BUILTINS = {
    "wb": "repro.baselines.wb",
    "sib": "repro.baselines.sib",
    "lbica": "repro.core.lbica",
    "partition": "repro.schemes.partition",
    "dynshare": "repro.schemes.dynshare",
    "slosteal": "repro.schemes.slosteal",
}


def _ensure_builtins() -> None:
    # Importing an already-imported module is a dict lookup, and a
    # failed import raises again on the next query.
    for module in _BUILTINS.values():
        importlib.import_module(module)


def register_scheme(
    cls: type[Scheme], *, overwrite: bool = False
) -> type[Scheme]:
    """Register a :class:`Scheme` subclass under its declared ``name``.

    Usable as a decorator.  Duplicate names are rejected (pass
    ``overwrite=True`` to deliberately replace an entry); a built-in
    name is taken even before its module has loaded.  A scheme that
    declares a ``config_field`` must name a real
    :class:`~repro.config.SystemConfig` attribute; that is checked when
    :meth:`~repro.schemes.base.Scheme.from_system` reads it at build
    time, so registering never imports :mod:`repro.config`.

    Returns:
        ``cls``, unchanged.
    """
    if not isinstance(cls, type) or not issubclass(cls, Scheme):
        raise TypeError(f"register_scheme expects a Scheme subclass, got {cls!r}")
    name = cls.name
    if not name or not isinstance(name, str):
        raise ValueError(f"{cls.__name__}: scheme name must be a non-empty string")
    if name in _BUILTINS:
        # Load the built-in first, so a duplicate of its name is caught
        # here and an overwrite is not undone when it loads later.  Its
        # own registration finds itself mid-import, which returns at once.
        importlib.import_module(_BUILTINS[name])
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"scheme {name!r} is already registered "
            f"(by {_REGISTRY[name].__name__}); pass overwrite=True to replace"
        )
    _REGISTRY[name] = cls
    return cls


def unknown_scheme_error(name: object) -> ValueError:
    """The canonical unknown-scheme error, naming the registry source."""
    return ValueError(
        f"unknown scheme {name!r}; registered schemes "
        f"(repro.schemes.registry): {', '.join(scheme_names())}"
    )


def get_scheme(name: str) -> type[Scheme]:
    """The registered scheme class for ``name``.

    Raises:
        ValueError: Naming the registry and listing every registered
            scheme — the error an unknown ``ScenarioSpec.scheme`` or CLI
            argument surfaces.
    """
    cls = _REGISTRY.get(name)
    if cls is None and name in _BUILTINS:
        importlib.import_module(_BUILTINS[name])
        cls = _REGISTRY.get(name)
    if cls is None:
        raise unknown_scheme_error(name)
    return cls


def _ordered() -> list[tuple[str, type[Scheme]]]:
    _ensure_builtins()
    # sorted() is stable, so equal registry_order keeps arrival order.
    return sorted(_REGISTRY.items(), key=lambda kv: kv[1].registry_order)


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name (``registry_order``, then arrival)."""
    return tuple(name for name, _ in _ordered())


def paper_schemes() -> tuple[str, ...]:
    """The paper's comparison baselines (``paper_baseline=True``)."""
    return tuple(name for name, cls in _ordered() if cls.paper_baseline)


def scheme_descriptions() -> dict[str, str]:
    """Every registered scheme with its one-line description."""
    return {name: cls.describe() for name, cls in _ordered()}


def build_scheme(name: str, system: "ExperimentSystem") -> Scheme:
    """Construct (and attach) the named scheme against a wired system."""
    return get_scheme(name).from_system(system)


def _registered(name: str) -> Optional[type[Scheme]]:
    """Internal: the entry for ``name`` or ``None`` (tests and tooling)."""
    return _REGISTRY.get(name)
