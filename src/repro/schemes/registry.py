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
        ticks_per_interval = 0  # no periodic tick

after which ``ScenarioSpec(scheme="noop")``, ``--list-schemes``, and
campaign sweeps over ``scheme`` all pick it up.

The table is a :class:`repro.registry.Registry`.  Each built-in scheme
registers itself at the bottom of its own module, and the registry maps
each built-in name to that module: :func:`get_scheme` imports only the
named scheme's module, so building a system loads only the scheme it
runs, while the listing queries (:func:`scheme_names`,
:func:`paper_schemes`, :func:`scheme_descriptions`) load all of them and
order them by each class's ``registry_order``, so the paper trio lists
first.  Scheme configs live apart, in :mod:`repro.schemes.configs`, so
:mod:`repro.config` imports no scheme implementation either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.registry import Registry
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

_SCHEMES = Registry(
    Scheme,
    key="name",
    kind="scheme",
    source=__name__,
    builtins={
        "wb": "repro.baselines.wb",
        "sib": "repro.baselines.sib",
        "lbica": "repro.core.lbica",
        "partition": "repro.schemes.partition",
        "dynshare": "repro.schemes.dynshare",
        "slosteal": "repro.schemes.slosteal",
    },
    order="registry_order",
)


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
    return _SCHEMES.register(cls, overwrite=overwrite)


def unknown_scheme_error(name: object) -> ValueError:
    """The canonical unknown-scheme error, naming the registry source."""
    return _SCHEMES.unknown(name)


def get_scheme(name: str) -> type[Scheme]:
    """The registered scheme class for ``name``.

    Raises:
        ValueError: Naming the registry and listing every registered
            scheme — the error an unknown ``ScenarioSpec.scheme`` or CLI
            argument surfaces.
    """
    return _SCHEMES.get(name)


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name (``registry_order``, then arrival)."""
    return _SCHEMES.keys()


def paper_schemes() -> tuple[str, ...]:
    """The paper's comparison baselines (``paper_baseline=True``)."""
    return tuple(name for name, cls in _SCHEMES.items() if cls.paper_baseline)


def scheme_descriptions() -> dict[str, str]:
    """Every registered scheme with its one-line description."""
    return {name: cls.describe() for name, cls in _SCHEMES.items()}


def build_scheme(name: str, system: "ExperimentSystem") -> Scheme:
    """Construct (and attach) the named scheme against a wired system."""
    return get_scheme(name).from_system(system)
