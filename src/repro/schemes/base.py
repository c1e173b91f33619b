"""The :class:`Scheme` abstraction: one allocation scheme, pluggable.

The paper's evaluation is a three-way comparison (``wb`` / ``sib`` /
``lbica``), and for four PRs those three names were an ``if``/``elif``
chain inside :class:`~repro.experiments.system.ExperimentSystem`.  This
module opens that axis: a scheme is a class with

- a registry ``name`` and one-line ``description`` (what the CLI's
  ``--list-schemes`` prints);
- a declared config dataclass (``config_cls``) and the
  :class:`~repro.config.SystemConfig` attribute that carries it
  (``config_field``) — which is what makes scheme-specific config
  blocks in scenario JSON (``"system": {"partition": {...}}``)
  validate like every other nested override;
- :meth:`attach`/:meth:`detach` to wire into (and cleanly out of) a
  built :class:`~repro.experiments.system.ExperimentSystem`;
- a periodic :meth:`on_tick` hook, run ``ticks_per_interval`` times per
  monitoring interval;
- a :meth:`decision_log` (one record per evaluation — the Fig. 6
  timeline generalized) and :meth:`summary_stats` for reports.

Registration lives in :mod:`repro.schemes.registry`;
:func:`~repro.schemes.registry.register_scheme` accepts any subclass,
so adding a competitor needs zero edits to core plumbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = ["Scheme", "CacheAllocator", "SchemeConfigLike"]


class SchemeConfigLike(Protocol):
    """What a declared scheme config dataclass must offer."""

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        ...


class CacheAllocator(Protocol):
    """Per-tenant cache-capacity control a scheme may install.

    The :class:`~repro.cache.controller.CacheController` consults an
    installed allocator before growing the cache on behalf of a tenant
    (promotions and cached writes) and notifies it of every insertion
    and removal, so the allocator can keep exact per-tenant resident
    counts.  With no allocator installed (the wb/sib/lbica datapath)
    every call site is skipped — the shared-cache behavior is
    bit-identical to the pre-registry code.
    """

    def admit(self, tenant_id: int, lba: int) -> bool:
        """Whether ``tenant_id`` may insert ``lba`` into the cache."""
        ...

    def note_insert(self, tenant_id: int, lba: int) -> None:
        """Record that ``lba`` is now resident on behalf of ``tenant_id``."""
        ...

    def note_remove(self, lba: int) -> None:
        """Record that ``lba`` left the cache (eviction or invalidation)."""
        ...


class Scheme:
    """Base class for allocation/balancing schemes.

    Subclasses declare class attributes (``name``, ``description``,
    ``config_cls``, ``config_field``, ``paper_baseline``,
    ``ticks_per_interval``) and implement behavior via the attach/tick
    hooks.  Every scheme is built the same way: ``cls(config)`` takes
    only its config block, and :meth:`attach` binds it to a wired
    system and derives its tick period from the monitoring interval.
    """

    #: Registry key (``scheme`` field of a :class:`ScenarioSpec`).
    name: ClassVar[str] = ""
    #: One-line human description (``--list-schemes``).
    description: ClassVar[str] = ""
    #: Declared config dataclass, or ``None`` for config-free schemes.
    config_cls: ClassVar[Optional[type[Any]]] = None
    #: :class:`~repro.config.SystemConfig` attribute holding the scheme's
    #: config block, or ``None`` (must name a real field when set).
    config_field: ClassVar[Optional[str]] = None
    #: Whether this scheme is one of the paper's three comparison
    #: baselines (the default figure grids iterate only these).
    paper_baseline: ClassVar[bool] = False
    #: Listing position in registry queries (lower first; ties break on
    #: registration order).  Built-ins pin the canonical ``wb, sib,
    #: lbica, partition, dynshare`` order; third-party schemes default
    #: to the end.
    registry_order: ClassVar[int] = 1000
    #: Control-loop evaluations per monitoring interval: :meth:`attach`
    #: sets :attr:`tick_interval_us` to ``interval_us`` divided by this
    #: (``0`` = no periodic tick).
    ticks_per_interval: ClassVar[int] = 0

    def __init__(self, config: Optional[SchemeConfigLike] = None) -> None:
        if config is None and self.config_cls is not None:
            config = self.config_cls()
        if config is not None:
            config.validate()
        # Any, deliberately: each subclass reads its own config dataclass's
        # fields, and the declared config_cls is what types it in spirit.
        self.config: Any = config
        self.decisions: list[Any] = []
        self.system: Optional["ExperimentSystem"] = None
        #: Period of the control loop (set by :meth:`attach`).
        self.tick_interval_us = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # Construction from a wired system
    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system: "ExperimentSystem") -> "Scheme":
        """Build this scheme against a wired system (the registry path).

        Constructs with the system's declared config block and attaches.
        """
        config = None
        if cls.config_field is not None:
            config = getattr(system.config, cls.config_field)
        return cls(config).attach(system)

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self, system: "ExperimentSystem") -> "Scheme":
        """Bind to a built system (simulator, datapath, devices).

        Returns ``self`` so ``cls(config).attach(system)`` chains.
        """
        if self.system is not None:
            raise RuntimeError(f"scheme {self.name!r} is already attached")
        self.system = system
        self.sim = system.sim
        self.controller = system.controller
        self.ssd = system.ssd
        self.hdd = system.hdd
        ticks = self.ticks_per_interval
        self.tick_interval_us = system.config.interval_us / ticks if ticks else 0.0
        self._on_attach(system)
        return self

    def detach(self) -> None:
        """Unbind from the system (idempotent).

        Undoes whatever :meth:`_on_attach` installed (e.g. a cache
        allocator); a started periodic tick keeps firing on the old
        simulator but observes nothing once detached.
        """
        if self.system is None:
            return
        self._on_detach(self.system)
        self.system = None

    def _on_attach(self, system: "ExperimentSystem") -> None:
        """Subclass hook: install datapath hooks, compute shares, ..."""

    def _on_detach(self, system: "ExperimentSystem") -> None:
        """Subclass hook: uninstall whatever :meth:`_on_attach` did."""

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic activity (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.tick_interval_us > 0:
            self.sim.schedule(self.tick_interval_us, self._tick)

    def _tick(self) -> None:
        if self.system is not None:
            self.on_tick(self.sim.now)
        self.sim.schedule(self.tick_interval_us, self._tick)

    def on_tick(self, now: float) -> None:
        """Per-tick hook: evaluate, decide, and log one decision."""

    # ------------------------------------------------------------------
    # Tenant churn hooks
    # ------------------------------------------------------------------
    def on_tenant_arrived(self, tenant_id: int) -> None:
        """A tenant arrived mid-run (churn).  Default: no reaction."""

    def on_tenant_departed(self, tenant_id: int) -> None:
        """A tenant departed mid-run (churn).  Default: no reaction.

        Capacity schemes override this to release the departed share
        (see :meth:`~repro.schemes.allocation.CapacityScheme.on_tenant_departed`).
        """

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def decision_log(self) -> list[Any]:
        """One record per control-loop evaluation (scheme-specific type)."""
        return self.decisions

    def summary_stats(self) -> dict[str, Any]:
        """Scheme-specific counters for reports (JSON-friendly)."""
        return {}

    @classmethod
    def describe(cls) -> str:
        """The one-line description, with a documented fallback."""
        if cls.description:
            return cls.description
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0].strip() if doc else "(no description)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
