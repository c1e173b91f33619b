"""The scheme layer: pluggable cache-allocation/balancing schemes.

- :mod:`repro.schemes.base` — the :class:`Scheme` ABC (attach/detach,
  per-tick hook, decision log, declared config dataclass) and the
  :class:`CacheAllocator` protocol the datapath consults;
- :mod:`repro.schemes.registry` — ``register_scheme`` and name
  resolution (what ``--list-schemes`` and scenario validation read);
- :mod:`repro.schemes.allocation` — per-tenant quota accounting shared
  by the capacity-allocation schemes;
- :mod:`repro.schemes.partition` — static per-VM cache partitioning
  (fair / weighted-proportional);
- :mod:`repro.schemes.dynshare` — efficiency-aware dynamic share
  allocation from observed hit-ratio curves;
- :mod:`repro.schemes.slosteal` — SLO-aware stealing: share moves from
  tenants inside their objectives to the worst violator;
- :mod:`repro.schemes.configs` — the built-in schemes' tuning
  dataclasses, the blocks :class:`~repro.config.SystemConfig` holds.

Each built-in scheme registers itself when its module is imported.
``get_scheme(name)`` imports only the module that registers ``name``;
the listing queries import them all, so ``scheme_names()`` always sees
the full set — the paper's comparison trio (``wb``, ``sib``,
``lbica``) first, then the capacity-allocation competitors
(``partition``, ``dynshare``, ``slosteal``), ordered by each class's
``registry_order``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.schemes.allocation import CapacityScheme, QuotaAllocator
    from repro.schemes.base import CacheAllocator, Scheme
    from repro.schemes.configs import DynShareConfig, PartitionConfig, SloStealConfig
    from repro.schemes.dynshare import DynamicShareScheme
    from repro.schemes.partition import StaticPartitionScheme
    from repro.schemes.registry import (
        build_scheme,
        get_scheme,
        paper_schemes,
        register_scheme,
        scheme_descriptions,
        scheme_names,
        unknown_scheme_error,
    )
    from repro.schemes.slosteal import SloStealScheme

__all__ = [
    "Scheme",
    "CacheAllocator",
    "CapacityScheme",
    "QuotaAllocator",
    "register_scheme",
    "get_scheme",
    "build_scheme",
    "scheme_names",
    "paper_schemes",
    "scheme_descriptions",
    "unknown_scheme_error",
    "PartitionConfig",
    "StaticPartitionScheme",
    "DynShareConfig",
    "DynamicShareScheme",
    "SloStealConfig",
    "SloStealScheme",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.schemes.allocation": ("CapacityScheme", "QuotaAllocator"),
        "repro.schemes.base": ("CacheAllocator", "Scheme"),
        "repro.schemes.configs": (
            "DynShareConfig",
            "PartitionConfig",
            "SloStealConfig",
        ),
        "repro.schemes.dynshare": ("DynamicShareScheme",),
        "repro.schemes.partition": ("StaticPartitionScheme",),
        "repro.schemes.registry": (
            "build_scheme",
            "get_scheme",
            "paper_schemes",
            "register_scheme",
            "scheme_descriptions",
            "scheme_names",
            "unknown_scheme_error",
        ),
        "repro.schemes.slosteal": ("SloStealScheme",),
    },
)
