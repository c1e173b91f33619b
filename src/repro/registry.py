"""One registry core: classes by key, with built-ins that load on demand.

The scheme registry (:mod:`repro.schemes.registry`), the trace-adapter
registry (:mod:`repro.trace.adapters`) and the simlint rule registry
(:mod:`repro.devtools.simlint.registry`) are each one :class:`Registry`.
They pass it only their data — base class, key attribute, kind, the
built-in modules and the listing order — and keep only their domain
functions on top of it.

Each built-in class registers itself at the bottom of its own module,
and the registry maps every built-in key to that module:

- :meth:`Registry.get` imports only the module of the key it looks up,
  so building a system loads only the scheme it runs;
- the listings (:meth:`Registry.items`, :meth:`Registry.keys`) import
  every built-in module, so they always see the full set;
- :meth:`Registry.register` imports a built-in's module before its
  duplicate check, so a built-in key is taken even before its module has
  loaded, and ``overwrite=True`` replaces the built-in for good.  The
  built-in's own registration finds its module mid-import, and
  importing a module that is partly initialised in the same thread
  returns it at once.

A built-in module whose import failed is not left in :data:`sys.modules`,
so the next query that needs it imports it again and raises again.
"""

from __future__ import annotations

import importlib
from typing import Generic, Mapping, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Subclasses of ``base`` registered under a key attribute.

    Args:
        base: The class every entry must subclass.
        key: The class attribute holding an entry's key (``"name"``).
        kind: What an entry is, in messages (``"trace adapter"``).  Its
            last word names the entry in ``register_<word>`` and in
            "registered <word>s".
        source: The module whose functions front this registry, named
            by the unknown-key error.
        builtins: Built-in key -> the module whose import registers it.
        order: The class attribute listings sort by; ties keep
            registration order.
    """

    def __init__(
        self,
        base: type[T],
        *,
        key: str,
        kind: str,
        source: str,
        builtins: Mapping[str, str],
        order: str,
    ) -> None:
        self.base = base
        self.key = key
        self.kind = kind
        self.noun = kind.split()[-1]
        self.source = source
        self.builtins = dict(builtins)
        self.order = order
        #: Registered classes by key, in registration order.  Treat as
        #: read-only; :meth:`register` adds entries.
        self.table: dict[str, type[T]] = {}

    def check(self, cls: object) -> str:
        """The key ``cls`` would register under.

        Raises:
            TypeError: ``cls`` is not a subclass of ``base``.
            ValueError: Its key is not a non-empty string.
        """
        if not isinstance(cls, type) or not issubclass(cls, self.base):
            raise TypeError(
                f"register_{self.noun} expects a {self.base.__name__} "
                f"subclass, got {cls!r}"
            )
        key = getattr(cls, self.key)
        if not key or not isinstance(key, str):
            raise ValueError(
                f"{cls.__name__}: {self.noun} {self.key} must be a non-empty string"
            )
        return key

    def register(self, cls: type[T], *, overwrite: bool = False) -> type[T]:
        """Register ``cls`` under its key; returns ``cls`` unchanged.

        Raises:
            ValueError: The key is taken, by a built-in even if its
                module has not loaded yet, and ``overwrite`` is false.
        """
        key = self.check(cls)
        if key in self.builtins:
            importlib.import_module(self.builtins[key])
        if key in self.table and not overwrite:
            raise ValueError(
                f"{self.kind} {key!r} is already registered "
                f"(by {self.table[key].__name__}); pass overwrite=True to replace"
            )
        self.table[key] = cls
        return cls

    def unknown(self, key: object) -> ValueError:
        """The canonical unknown-key error: names the source, lists every key."""
        return ValueError(
            f"unknown {self.kind} {key!r}; registered {self.noun}s "
            f"({self.source}): {', '.join(self.keys())}"
        )

    def get(self, key: str) -> type[T]:
        """The class registered under ``key``, loading only its built-in.

        Raises:
            ValueError: :meth:`unknown`'s error, for an unregistered key.
        """
        cls = self.table.get(key)
        if cls is None and key in self.builtins:
            importlib.import_module(self.builtins[key])
            cls = self.table.get(key)
        if cls is None:
            raise self.unknown(key)
        return cls

    def items(self) -> list[tuple[str, type[T]]]:
        """Every ``(key, class)``, built-ins loaded, in listing order."""
        for module in self.builtins.values():
            importlib.import_module(module)
        # sorted() is stable, so equal sort keys keep registration order.
        return sorted(self.table.items(), key=lambda kv: getattr(kv[1], self.order))

    def keys(self) -> tuple[str, ...]:
        """Every registered key, in listing order."""
        return tuple(key for key, _ in self.items())
