"""Multi-tenant (multi-VM) workload composition.

LBICA targets *virtualized platforms*: several VMs share one SSD I/O
cache, and one VM's burst degrades its neighbours' I/O.  A
:class:`MultiTenantWorkload` reproduces that deployment model by
composing N existing workloads into one arrival stream over a shared
cache:

- every request is stamped with its VM's ``tenant_id`` so the cache
  controller and iostat monitor can break latency / hit-ratio / bypass
  accounting down per VM;
- each VM gets a disjoint LBA region (its own virtual disk) via a fixed
  per-tenant address stride — VMs contend for cache *capacity* and
  *queue slots*, not for blocks.  Each VM's workload is bound with its
  id and region offset and builds its requests with both, so a request
  reaches the cache controller directly, with no forwarding call;
- each VM draws arrivals from an independent RNG stream derived
  deterministically from the run's workload stream and the VM's tenant
  index, so appending a tenant never perturbs an existing tenant's
  arrival sequence (reordering tenants reassigns indices and therefore
  streams);
- per-VM rate scales and phase offsets (in monitoring intervals)
  stagger the tenants, e.g. a boot storm landing beside an
  already-steady web server.

Two consolidated scenarios are registered with the experiment harness
(see ``repro.experiments.system.WORKLOADS``): ``consolidated3`` (TPC-C +
mail + web on one cache) and ``bootstorm_neighbors`` (a boot storm
beside a steady web server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.io.request import Request
from repro.sim.fastdraw import replication_verified
from repro.workloads.base import Workload, WorkloadStats
from repro.workloads.bootstorm import boot_storm_workload
from repro.workloads.mail import mail_server_workload
from repro.workloads.tpcc import tpcc_workload
from repro.workloads.web import web_server_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.churn import TenantLifecycle
    from repro.service.slo import SloTarget

__all__ = [
    "TenantSpec",
    "MultiTenantWorkload",
    "consolidated3_workload",
    "bootstorm_neighbors_workload",
    "DEFAULT_LBA_STRIDE_FACTOR",
]

#: Default per-tenant LBA stride, in units of ``cache_blocks``.  The
#: widest single-workload footprint (the mail/web dirty spool) reaches
#: ``cache_blocks * 200 + cache_blocks // 16``, so 256 keeps every
#: tenant's virtual disk disjoint with headroom.
DEFAULT_LBA_STRIDE_FACTOR = 256


@dataclass
class TenantSpec:
    """One VM in a consolidation scenario.

    Attributes:
        factory: Workload factory with the registry signature
            ``f(interval_us, cache_blocks=..., rate_scale=...,
            max_outstanding=...)``.
        rate_scale: Per-VM multiplier applied on top of the run-level
            ``rate_scale`` (consolidated VMs usually run below their
            dedicated-cache rates).
        offset_intervals: Monitoring intervals to delay this VM's start.
        label: Optional display name (defaults to the child's own name).
        lifecycle: Optional service declaration (mid-run arrival /
            departure / migrations, SLO targets).  A lifecycle arrival
            replaces ``offset_intervals`` — declaring both is an error.
    """

    factory: Callable[..., Workload]
    rate_scale: float = 1.0
    offset_intervals: int = 0
    label: Optional[str] = None
    lifecycle: Optional[TenantLifecycle] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.rate_scale <= 0:
            raise ValueError("tenant rate_scale must be positive")
        if self.offset_intervals < 0:
            raise ValueError("tenant offset_intervals must be non-negative")
        if self.lifecycle is not None:
            self.lifecycle.validate()
            if self.lifecycle.arrive_at_us is not None and self.offset_intervals > 0:
                raise ValueError(
                    "tenant offset_intervals and lifecycle arrive_at_us "
                    "are mutually exclusive"
                )


class MultiTenantWorkload:
    """N workloads sharing one cache, each under its own ``tenant_id``.

    Args:
        name: Scenario name (shows up in ``RunResult.workload``).
        children: Per-VM workloads (``tenant_id`` is the list index).
        lba_stride_blocks: Address-space stride between tenants; every
            request and warm block of tenant *i* is shifted by
            ``i * lba_stride_blocks``.
        offsets_us: Per-VM start delays (µs), aligned with ``children``;
            each delayed child's phase script is shifted to match.
        lifecycles: Optional per-VM service declarations, aligned with
            ``children``.  A lifecycle arrival overrides the tenant's
            offset as its start time; departures and migrations are
            executed mid-run by a :class:`~repro.service.churn.ChurnManager`.
    """

    def __init__(
        self,
        name: str,
        children: Sequence[Workload],
        lba_stride_blocks: int,
        offsets_us: Optional[Sequence[float]] = None,
        lifecycles: Optional[Sequence[Optional[TenantLifecycle]]] = None,
    ) -> None:
        if not children:
            raise ValueError("at least one tenant required")
        if lba_stride_blocks <= 0:
            raise ValueError("lba_stride_blocks must be positive")
        offsets = list(offsets_us) if offsets_us is not None else [0.0] * len(children)
        if len(offsets) != len(children):
            raise ValueError("offsets_us must align with children")
        if any(o < 0 for o in offsets):
            raise ValueError("offsets must be non-negative")
        if any(isinstance(c, MultiTenantWorkload) for c in children):
            # completion routing keys on the flat tenant_id; nesting would
            # overwrite the inner ids and misroute backpressure
            raise ValueError("nested multi-tenant composition is not supported")
        lcs = list(lifecycles) if lifecycles is not None else [None] * len(children)
        if len(lcs) != len(children):
            raise ValueError("lifecycles must align with children")
        self.name = name
        self.children = list(children)
        self.lba_stride_blocks = int(lba_stride_blocks)
        self.offsets_us = offsets
        self.lifecycles: list[Optional[TenantLifecycle]] = lcs
        starts: list[float] = []
        for lifecycle, offset in zip(lcs, offsets):
            if lifecycle is None or lifecycle.arrive_at_us is None:
                start = offset
            else:
                if offset > 0:
                    raise ValueError(
                        "tenant offset and lifecycle arrive_at_us are "
                        "mutually exclusive"
                    )
                start = lifecycle.arrive_at_us
            if lifecycle is not None:
                lifecycle.validate()
                if (
                    lifecycle.depart_at_us is not None
                    and lifecycle.depart_at_us <= start
                ):
                    raise ValueError("tenant depart_at_us must follow its start")
            starts.append(start)
        #: Per-tenant effective start times (offset or lifecycle arrival).
        self.start_times_us: list[float] = starts
        for child, start in zip(self.children, starts):
            if start > 0:
                child.shift(start)

    # ------------------------------------------------------------------
    @classmethod
    def compose(
        cls,
        name: str,
        specs: Sequence[TenantSpec],
        interval_us: float,
        cache_blocks: int = 4096,
        rate_scale: float = 1.0,
        max_outstanding: int = 256,
        lba_stride_blocks: Optional[int] = None,
    ) -> "MultiTenantWorkload":
        """Build a scenario from tenant specs (the registry signature).

        Each tenant's footprint is sized against its *fair share* of the
        shared cache (``cache_blocks // n``): the combined steady-state
        working sets fit, and contention comes from bursts stealing a
        neighbour's share — the paper's scenario — rather than from an
        impossible aggregate fit.  The application concurrency bound is
        likewise split across tenants (floored at 16 per VM).
        """
        if not specs:
            raise ValueError("at least one tenant spec required")
        for spec in specs:
            spec.validate()
        per_vm_outstanding = max(16, max_outstanding // len(specs))
        share_blocks = max(64, cache_blocks // len(specs))
        children = [
            spec.factory(
                interval_us,
                cache_blocks=share_blocks,
                rate_scale=rate_scale * spec.rate_scale,
                max_outstanding=per_vm_outstanding,
            )
            for spec in specs
        ]
        for spec, child in zip(specs, children):
            if spec.label:
                child.name = spec.label
        stride = (
            lba_stride_blocks
            if lba_stride_blocks is not None
            else share_blocks * DEFAULT_LBA_STRIDE_FACTOR
        )
        offsets = [spec.offset_intervals * interval_us for spec in specs]
        lifecycles = [spec.lifecycle for spec in specs]
        return cls(
            name,
            children,
            lba_stride_blocks=stride,
            offsets_us=offsets,
            lifecycles=lifecycles,
        )

    # ------------------------------------------------------------------
    @property
    def tenant_count(self) -> int:
        """Number of composed VMs."""
        return len(self.children)

    @property
    def duration_us(self) -> float:
        """End of the last tenant's (shifted) script."""
        return max(child.duration_us for child in self.children)

    @property
    def has_churn(self) -> bool:
        """Whether any tenant schedules a mid-run lifecycle event."""
        return any(lc is not None and lc.has_churn for lc in self.lifecycles)

    def slo_targets(self) -> dict[int, SloTarget]:
        """Declared SLO targets, keyed by ``tenant_id`` (may be empty)."""
        return {
            tid: lc.slo
            for tid, lc in enumerate(self.lifecycles)
            if lc is not None and lc.slo is not None
        }

    def _check_tenant(self, tenant_id: int) -> int:
        if not 0 <= tenant_id < len(self.children):
            raise KeyError(
                f"unknown tenant_id {tenant_id} "
                f"(composition has tenants 0..{len(self.children) - 1})"
            )
        return tenant_id

    def tenant_region(self, tenant_id: int) -> tuple[int, int]:
        """The tenant's half-open LBA region ``[lo, hi)``."""
        tid = self._check_tenant(tenant_id)
        lo = tid * self.lba_stride_blocks
        return lo, lo + self.lba_stride_blocks

    def tenant_warm_blocks(self, tenant_id: int) -> tuple[list[int], list[int]]:
        """One tenant's ``(clean, dirty)`` warm sets, region-shifted."""
        tid = self._check_tenant(tenant_id)
        child = self.children[tid]
        offset = tid * self.lba_stride_blocks
        clean = [lba + offset for lba in getattr(child, "warm_blocks", ())]
        dirty = [lba + offset for lba in getattr(child, "warm_dirty_blocks", ())]
        return clean, dirty

    def stop_tenant(self, tenant_id: int) -> None:
        """Stop one tenant's arrival generation (departure)."""
        self.children[self._check_tenant(tenant_id)].stop()

    @property
    def warm_blocks(self) -> list[int]:
        """Start-resident tenants' warm sets, shifted into their regions.

        A tenant with a lifecycle arrival is excluded — its warm set is
        re-warmed by the churn manager when it actually arrives.
        """
        out: list[int] = []
        for tid, child in enumerate(self.children):
            lifecycle = self.lifecycles[tid]
            if lifecycle is not None and lifecycle.arrive_at_us is not None:
                continue
            offset = tid * self.lba_stride_blocks
            out.extend(lba + offset for lba in getattr(child, "warm_blocks", ()))
        return out

    @property
    def warm_dirty_blocks(self) -> list[int]:
        """Start-resident tenants' warm dirty sets, region-shifted."""
        out: list[int] = []
        for tid, child in enumerate(self.children):
            lifecycle = self.lifecycles[tid]
            if lifecycle is not None and lifecycle.arrive_at_us is not None:
                continue
            offset = tid * self.lba_stride_blocks
            out.extend(
                lba + offset for lba in getattr(child, "warm_dirty_blocks", ())
            )
        return out

    @property
    def stats(self) -> WorkloadStats:
        """Aggregate arrival counters across all tenants."""
        agg = WorkloadStats()
        for child in self.children:
            s = child.stats
            agg.generated += s.generated
            agg.reads += s.reads
            agg.writes += s.writes
            agg.throttled += s.throttled
        agg.finished = all(child.stats.finished for child in self.children)
        return agg

    def tenant_stats(
        self, tenant_id: Optional[int] = None
    ) -> dict[int, WorkloadStats] | WorkloadStats:
        """Per-tenant arrival counters.

        With no argument, returns the full ``{tenant_id: stats}`` map.
        With a tenant id, returns that tenant's counters — raising
        ``KeyError`` for an id the composition never had, rather than
        fabricating an empty entry.  A *departed* tenant is still a
        valid id: its counters reflect the arrivals it generated before
        stopping.
        """
        if tenant_id is None:
            return {tid: child.stats for tid, child in enumerate(self.children)}
        return self.children[self._check_tenant(tenant_id)].stats

    def burst_intervals(self) -> list[int]:
        """Union of the tenants' scripted burst windows, start-adjusted."""
        out: set[int] = set()
        for child, start_us in zip(self.children, self.start_times_us):
            shift = int(round(start_us / child.interval_us)) if start_us else 0
            out.update(i + shift for i in child.burst_intervals())
        return sorted(out)

    # ------------------------------------------------------------------
    def bind(
        self, sim, submit: Callable[[Request], None], rng: np.random.Generator
    ) -> None:
        """Bind every tenant with an independent derived RNG stream.

        One base seed is drawn from ``rng``; each tenant's stream is
        then spawned from ``(base, tenant_id)``.  The composition is
        reproducible from the run's root seed, tenants are mutually
        independent, and appending a tenant leaves every existing
        tenant's stream untouched (only the one draw from ``rng``
        happens regardless of tenant count).  Each tenant is bound with
        its id and LBA region offset, which its requests carry from
        construction.

        The tenants bind from scheduled events, so the once-per-process
        draw self-check their binds consult runs here, in set-up, rather
        than inside the event loop.
        """
        replication_verified()
        base_seed = int(rng.integers(0, 2**62))
        stride = self.lba_stride_blocks
        for tid, (child, start_us) in enumerate(
            zip(self.children, self.start_times_us)
        ):
            child_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=base_seed, spawn_key=(tid,))
            )
            sim.schedule(
                start_us, child.bind, sim, submit, child_rng, tid, tid * stride
            )

    def on_request_complete(self, request: Request) -> None:
        """Route the completion back to the owning tenant's backpressure."""
        self.children[request.tenant_id].on_request_complete(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(child.name for child in self.children)
        return f"MultiTenantWorkload({self.name!r}: {names})"


# ----------------------------------------------------------------------
# Registered consolidation scenarios
# ----------------------------------------------------------------------
def consolidated3_workload(
    interval_us: float,
    cache_blocks: int = 4096,
    rate_scale: float = 1.0,
    max_outstanding: int = 256,
) -> MultiTenantWorkload:
    """TPC-C + mail + web VMs consolidated on one shared cache.

    The paper's three evaluation workloads run side by side, staggered
    by a few intervals and throttled to consolidated-tenant rates, so
    their bursts land on a cache already carrying two neighbours.
    """
    specs = [
        TenantSpec(tpcc_workload, rate_scale=0.55),
        TenantSpec(mail_server_workload, rate_scale=0.75, offset_intervals=5),
        TenantSpec(web_server_workload, rate_scale=0.75, offset_intervals=10),
    ]
    return MultiTenantWorkload.compose(
        "consolidated3",
        specs,
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


def bootstorm_neighbors_workload(
    interval_us: float,
    cache_blocks: int = 4096,
    rate_scale: float = 1.0,
    max_outstanding: int = 256,
) -> MultiTenantWorkload:
    """A boot storm landing beside an already-steady web server.

    The motivating scenario of the paper's introduction: the noisy
    neighbour's storm floods the shared cache while the steady tenant's
    latency is what suffers.
    """
    specs = [
        TenantSpec(web_server_workload, rate_scale=0.75),
        TenantSpec(boot_storm_workload, rate_scale=0.75, offset_intervals=10),
    ]
    return MultiTenantWorkload.compose(
        "bootstorm_neighbors",
        specs,
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )
