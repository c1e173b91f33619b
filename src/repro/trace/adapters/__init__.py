"""Trace format adapters: one registry, many on-disk formats.

Public block traces come in many shapes — blkparse dumps, the
MSR-Cambridge CSVs, this project's own text format — and the replay
stack should not care which one a file uses.  A :class:`TraceAdapter`
translates one *line* of a foreign format into a canonical
:class:`~repro.trace.records.TraceRecord` (and back, for round-trips);
:func:`repro.trace.parser.iter_trace` threads every line of a file
through one adapter instance, so the streaming property is preserved no
matter the format.

The registry is a :class:`repro.registry.Registry`, like the scheme and
simlint rule registries: classes register under a declared ``name``,
duplicates are rejected, :func:`get_adapter` imports only the named
built-in's module while the listings import all three, and an unknown
name raises the canonical error listing every registered adapter.
Adding a format is one class::

    from repro.trace.adapters import TraceAdapter, register_adapter

    @register_adapter
    class FioLogAdapter(TraceAdapter):
        name = "fio"
        description = "fio write_iolog output."

        def parse_line(self, lineno, line):
            ...  # return a TraceRecord, or None to skip the line

after which ``iter_trace(path, adapter="fio")`` and the ``trace:``
workload-spec section both accept it.

Adapters may be stateful (the MSR adapter rebases timestamps to the
first data row and numbers ops as it goes), so :func:`get_adapter`
returns a **fresh instance** per call — never share one instance across
concurrent iterations.
"""

from __future__ import annotations

from typing import Optional

from repro.registry import Registry
from repro.trace.records import TraceRecord

__all__ = [
    "TraceAdapter",
    "register_adapter",
    "get_adapter",
    "adapter_names",
    "adapter_descriptions",
    "unknown_adapter_error",
]


class TraceAdapter:
    """Translates between one trace format and :class:`TraceRecord`.

    Subclasses declare ``name`` / ``description`` and implement
    :meth:`parse_line`; formats that can be written back (round-trips,
    format conversion) also implement :meth:`format_record`.

    Attributes:
        name: Registry key (``iter_trace(path, adapter=name)``).
        description: One-line summary for listings and docs.
        registry_order: Sort key for listing order (lower lists first).
    """

    name: str = ""
    description: str = ""
    registry_order: int = 100

    def parse_line(self, lineno: int, line: str) -> Optional[TraceRecord]:
        """Parse one stripped, non-blank line.

        Returns:
            The parsed record, or ``None`` for lines the format defines
            as non-events (comments, CSV headers, untracked blkparse
            actions).

        Raises:
            TraceParseError: For lines that should be events but are
                malformed.
        """
        raise NotImplementedError

    def format_record(self, rec: TraceRecord) -> str:
        """Render one record as a line of this format."""
        raise NotImplementedError(f"adapter {self.name!r} is read-only")

    def header(self) -> Optional[str]:
        """Header line emitted before records when dumping (or ``None``)."""
        return None

    @classmethod
    def describe(cls) -> str:
        """The adapter's one-line description (listings, docs)."""
        return cls.description or cls.__name__


#: The built-in modules import this package to register, so the registry
#: imports them on demand rather than from here.
_ADAPTERS = Registry(
    TraceAdapter,
    key="name",
    kind="trace adapter",
    source=__name__,
    builtins={
        "native": "repro.trace.adapters.native",
        "blkparse": "repro.trace.adapters.blkparse",
        "msr": "repro.trace.adapters.msr",
    },
    order="registry_order",
)


def register_adapter(
    cls: type[TraceAdapter], *, overwrite: bool = False
) -> type[TraceAdapter]:
    """Register a :class:`TraceAdapter` subclass under its ``name``.

    Usable as a decorator.  Duplicate names are rejected (pass
    ``overwrite=True`` to deliberately replace an entry); a built-in
    name is taken even before its module has loaded.

    Returns:
        ``cls``, unchanged.
    """
    return _ADAPTERS.register(cls, overwrite=overwrite)


def unknown_adapter_error(name: object) -> ValueError:
    """The canonical unknown-adapter error, naming the registry source."""
    return _ADAPTERS.unknown(name)


def get_adapter(name: str) -> TraceAdapter:
    """A fresh instance of the registered adapter for ``name``.

    A new instance per call: adapters may carry per-iteration state
    (timestamp rebasing, op numbering), so instances must not be shared
    across concurrent trace iterations.

    Raises:
        ValueError: Naming the registry and listing every registered
            adapter — the error an unknown ``trace:`` spec adapter or
            ``iter_trace`` argument surfaces.
    """
    return _ADAPTERS.get(name)()


def adapter_names() -> tuple[str, ...]:
    """Every registered adapter name (``registry_order``, then arrival)."""
    return _ADAPTERS.keys()


def adapter_descriptions() -> dict[str, str]:
    """Every registered adapter with its one-line description."""
    return {name: cls.describe() for name, cls in _ADAPTERS.items()}
