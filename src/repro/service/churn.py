"""Tenant churn: mid-run arrivals, departures, and migrations.

A consolidated platform is never static — VMs arrive, depart, and get
migrated while their neighbours keep running.  This module makes that
expressible:

- :class:`TenantLifecycle` — one tenant's service declaration
  (``arrive_at_us`` / ``depart_at_us`` / ``migrate_at_us`` plus an
  optional :class:`~repro.service.slo.SloTarget`), validated strictly;
- :func:`generate_lifecycles` — a seeded churn process (uniform arrival
  window, exponential lifetimes) for scenarios that want *many*
  short-lived tenants without enumerating them;
- :class:`TenantEvent` — one scheduled churn action, for reporting;
- :class:`ChurnManager` — the executor: it schedules every lifecycle
  event on the simulator (``Simulator.schedule``, as a delay from the
  start time) and drives the cache-side consequences — share reclamation
  with dirty write-back on departure, allocator-gated rewarm on arrival,
  and both in sequence on migration.

The manager deliberately duck-types its workload (see
:class:`ServiceWorkload`): any composition exposing per-tenant regions,
warm sets, and a stop hook can churn, without this module importing a
concrete workload class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, Sequence

import numpy as np

from repro.cache.controller import CacheController
from repro.service.slo import ServiceError, SloTarget
from repro.sim.engine import Simulator

__all__ = [
    "TenantEvent",
    "TenantLifecycle",
    "generate_lifecycles",
    "ChurnManager",
    "ServiceWorkload",
]


@dataclass(frozen=True)
class TenantEvent:
    """One scheduled churn action (reporting/debugging record)."""

    time_us: float
    tenant_id: int
    kind: str  # "arrive" | "depart" | "migrate"

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (stored artifacts, reports)."""
        return {"time_us": self.time_us, "tenant_id": self.tenant_id, "kind": self.kind}


@dataclass(frozen=True)
class TenantLifecycle:
    """One tenant's service declaration.

    A default-constructed lifecycle describes a static tenant: present
    from the start of the run to the end, no SLO.  Times are absolute
    simulation µs.

    Attributes:
        arrive_at_us: When the tenant arrives (its workload binds and
            its warm set is re-warmed); ``None`` means present from 0.
        depart_at_us: When the tenant departs (arrivals stop, its cache
            share is reclaimed with dirty write-back); ``None`` means it
            never departs.
        migrate_at_us: Times the tenant is migrated — its cache state is
            reclaimed (dirty blocks flushed) and its clean warm set
            re-warmed on the "new host".
        slo: Optional service-level objectives for this tenant.
    """

    arrive_at_us: Optional[float] = None
    depart_at_us: Optional[float] = None
    migrate_at_us: tuple[float, ...] = ()
    slo: Optional[SloTarget] = None

    def validate(self) -> None:
        """Raise :class:`ServiceError` on an inconsistent lifecycle."""
        start = 0.0 if self.arrive_at_us is None else self.arrive_at_us
        if start < 0:
            raise ServiceError("lifecycle: arrive_at_us must be non-negative")
        if self.depart_at_us is not None and self.depart_at_us <= start:
            raise ServiceError("lifecycle: depart_at_us must follow the arrival")
        prev = start
        for t in self.migrate_at_us:
            if t <= prev:
                raise ServiceError(
                    "lifecycle: migrate_at_us must be strictly increasing "
                    "and follow the arrival"
                )
            prev = t
        if self.depart_at_us is not None and prev >= self.depart_at_us:
            raise ServiceError("lifecycle: migrations must precede the departure")
        if self.slo is not None:
            self.slo.validate()

    @property
    def has_churn(self) -> bool:
        """Whether this lifecycle schedules any mid-run event."""
        return (
            self.arrive_at_us is not None
            or self.depart_at_us is not None
            or bool(self.migrate_at_us)
        )


def generate_lifecycles(
    n_tenants: int,
    interval_us: float,
    seed: int,
    arrive_window_intervals: float = 10.0,
    mean_lifetime_intervals: float = 40.0,
    min_lifetime_intervals: float = 5.0,
    keep_first: bool = True,
) -> list[TenantLifecycle]:
    """Draw a seeded churn process over ``n_tenants`` tenants.

    Each tenant's arrival is uniform in the arrival window and its
    lifetime exponential with the given mean (floored at the minimum),
    mirroring the short-lived-VM population of a consolidated platform.
    Draws use one spawned RNG stream per tenant index, so — like
    multi-tenant arrival streams — appending a tenant never perturbs an
    existing tenant's lifecycle.

    Args:
        n_tenants: Number of tenants to draw lifecycles for.
        interval_us: Monitoring interval (the window/lifetime unit).
        seed: Churn-process seed (independent of the run seed).
        arrive_window_intervals: Arrivals land uniformly in
            ``[0, window)`` intervals.
        mean_lifetime_intervals: Mean exponential lifetime.
        min_lifetime_intervals: Lifetime floor (avoids zero-length
            tenants).
        keep_first: Keep tenant 0 static (present for the whole run) so
            churn scenarios retain one always-on victim/observer tenant.
    """
    if n_tenants < 1:
        raise ServiceError("churn process: n_tenants must be >= 1")
    if interval_us <= 0:
        raise ServiceError("churn process: interval_us must be positive")
    if arrive_window_intervals < 0:
        raise ServiceError("churn process: arrive_window_intervals must be >= 0")
    if mean_lifetime_intervals <= 0:
        raise ServiceError("churn process: mean_lifetime_intervals must be positive")
    if min_lifetime_intervals < 0:
        raise ServiceError("churn process: min_lifetime_intervals must be >= 0")
    lifecycles: list[TenantLifecycle] = []
    for tid in range(n_tenants):
        if tid == 0 and keep_first:
            lifecycles.append(TenantLifecycle())
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(tid,))
        )
        arrive = float(rng.uniform(0.0, arrive_window_intervals * interval_us))
        lifetime = max(
            min_lifetime_intervals * interval_us,
            float(rng.exponential(mean_lifetime_intervals * interval_us)),
        )
        lifecycle = TenantLifecycle(
            arrive_at_us=arrive if arrive > 0 else None,
            depart_at_us=arrive + lifetime,
        )
        lifecycle.validate()
        lifecycles.append(lifecycle)
    return lifecycles


class ServiceWorkload(Protocol):
    """What the churn manager needs from a multi-tenant composition."""

    @property
    def tenant_count(self) -> int:
        """Number of composed tenants."""
        ...

    @property
    def lifecycles(self) -> Sequence[Optional[TenantLifecycle]]:
        """Per-tenant lifecycles, aligned with tenant ids."""
        ...

    def stop_tenant(self, tenant_id: int) -> None:
        """Stop the tenant's arrival generation (departure)."""
        ...

    def tenant_region(self, tenant_id: int) -> tuple[int, int]:
        """The tenant's half-open LBA region ``[lo, hi)``."""
        ...

    def tenant_warm_blocks(self, tenant_id: int) -> tuple[list[int], list[int]]:
        """The tenant's ``(clean, dirty)`` warm sets, region-shifted."""
        ...


class TenantAwareBalancer(Protocol):
    """The scheme-side churn hooks (every :class:`Scheme` has them)."""

    def on_tenant_arrived(self, tenant_id: int) -> None:
        """React to a tenant arriving mid-run."""
        ...

    def on_tenant_departed(self, tenant_id: int) -> None:
        """React to a tenant departing mid-run."""
        ...


class ChurnManager:
    """Schedules and executes a run's tenant-churn events.

    Args:
        sim: The simulator.
        controller: The cache datapath (reclaim/rewarm operations).
        workload: The multi-tenant composition (duck-typed; see
            :class:`ServiceWorkload`).
        balancer: Optional active scheme, notified via its
            ``on_tenant_arrived`` / ``on_tenant_departed`` hooks so
            capacity schemes can redistribute a departed share.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: CacheController,
        workload: ServiceWorkload,
        balancer: Optional[TenantAwareBalancer] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.workload = workload
        self.balancer = balancer
        self.events: list[TenantEvent] = []
        self.arrivals = 0
        self.departures = 0
        self.migrations = 0
        self.blocks_reclaimed = 0
        self.dirty_flushed = 0
        self.blocks_rewarmed = 0
        self._active: set[int] = set()
        self._departed: set[int] = set()
        self._started = False
        for tid in range(workload.tenant_count):
            lifecycle = workload.lifecycles[tid]
            if lifecycle is None or lifecycle.arrive_at_us is None:
                self._active.add(tid)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every lifecycle event (idempotent).

        Call before the workload binds: a same-time arrival's rewarm
        then executes before the tenant's first request is generated.
        """
        if self._started:
            return
        self._started = True
        now = self.sim.now
        for tid in range(self.workload.tenant_count):
            lifecycle = self.workload.lifecycles[tid]
            if lifecycle is None:
                continue
            lifecycle.validate()
            if lifecycle.arrive_at_us is not None:
                self.events.append(TenantEvent(lifecycle.arrive_at_us, tid, "arrive"))
                self.sim.schedule(lifecycle.arrive_at_us - now, self._arrive, tid)
            for t in lifecycle.migrate_at_us:
                self.events.append(TenantEvent(t, tid, "migrate"))
                self.sim.schedule(t - now, self._migrate, tid)
            if lifecycle.depart_at_us is not None:
                self.events.append(TenantEvent(lifecycle.depart_at_us, tid, "depart"))
                self.sim.schedule(lifecycle.depart_at_us - now, self._depart, tid)

    def is_active(self, tenant_id: int) -> bool:
        """Whether the tenant is currently present (arrived, not departed)."""
        return tenant_id in self._active

    # ------------------------------------------------------------------
    def _rewarm(self, tenant_id: int, include_dirty: bool) -> int:
        clean, dirty = self.workload.tenant_warm_blocks(tenant_id)
        rewarm = self.controller.rewarm_block
        count = 0
        for lba in clean:
            if rewarm(lba, tenant_id):
                count += 1
        if include_dirty:
            for lba in dirty:
                if rewarm(lba, tenant_id, dirty=True):
                    count += 1
        else:
            # after a reclaim the dirty data was flushed to the disk;
            # the new host rewarms clean copies only
            for lba in dirty:
                if rewarm(lba, tenant_id):
                    count += 1
        return count

    def _arrive(self, tenant_id: int) -> None:
        self.blocks_rewarmed += self._rewarm(tenant_id, include_dirty=True)
        self.arrivals += 1
        self._active.add(tenant_id)
        if self.balancer is not None:
            self.balancer.on_tenant_arrived(tenant_id)

    def _depart(self, tenant_id: int) -> None:
        self.workload.stop_tenant(tenant_id)
        lo, hi = self.workload.tenant_region(tenant_id)
        reclaimed, flushed = self.controller.reclaim_range(lo, hi)
        self.blocks_reclaimed += reclaimed
        self.dirty_flushed += flushed
        self.departures += 1
        self._active.discard(tenant_id)
        self._departed.add(tenant_id)
        if self.balancer is not None:
            self.balancer.on_tenant_departed(tenant_id)

    def _migrate(self, tenant_id: int) -> None:
        lo, hi = self.workload.tenant_region(tenant_id)
        reclaimed, flushed = self.controller.reclaim_range(lo, hi)
        self.blocks_reclaimed += reclaimed
        self.dirty_flushed += flushed
        self.blocks_rewarmed += self._rewarm(tenant_id, include_dirty=False)
        self.migrations += 1

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Deterministic churn counters (JSON-friendly)."""
        return {
            "arrivals": self.arrivals,
            "departures": self.departures,
            "migrations": self.migrations,
            "blocks_reclaimed": self.blocks_reclaimed,
            "dirty_flushed": self.dirty_flushed,
            "blocks_rewarmed": self.blocks_rewarmed,
            "departed": sorted(self._departed),
            "n_events": len(self.events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChurnManager(events={len(self.events)}, "
            f"active={sorted(self._active)})"
        )
