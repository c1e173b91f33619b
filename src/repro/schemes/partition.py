"""Static per-VM cache partitioning.

The classic multi-tenant answer to noisy neighbours (EnhanceIO/
dm-cache deployments, vCacheShare's static baseline): carve the shared
SSD cache into fixed per-VM *capacity* shares at startup so one
tenant's burst cannot grow past its share and squeeze a neighbour's
footprint (victim selection inside a full associativity set stays
shared set-LRU — see :mod:`repro.schemes.allocation` for the exact
guarantee).  Two variants:

- ``fair`` — every VM gets ``capacity / n`` blocks;
- ``proportional`` — shares follow configured weights (missing weights
  default to 1.0), e.g. ``weights: [2, 1, 1]`` gives the first VM half
  the cache.

Enforcement is per-tenant replacement via
:class:`~repro.schemes.allocation.QuotaAllocator`: a tenant at quota
recycles its own oldest clean block to admit new data — it churns
within its share instead of stealing a neighbour's — and is denied
(promotion skipped, write routed around the cache to the disk) only
while its share is entirely dirty.  The per-tick hook only *observes* —
each tick logs a :class:`PartitionDecision` snapshot of shares,
occupancy, recycling, and denials (the scheme's Fig. 6-style timeline);
the shares themselves never move, which is exactly the rigidity the
dynamic allocator (:mod:`repro.schemes.dynshare`) relaxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.schemes.allocation import (
    CapacityScheme,
    fair_shares,
    proportional_shares,
)
from repro.schemes.configs import PartitionConfig
from repro.schemes.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = ["PartitionConfig", "PartitionDecision", "StaticPartitionScheme"]

@dataclass(frozen=True)
class PartitionDecision:
    """One observation of the partitioned cache (shares never move)."""

    time: float
    shares: dict[int, int]
    occupancy: dict[int, int]
    recycled: dict[int, int]
    denied: dict[int, int]


class StaticPartitionScheme(CapacityScheme):
    """Fixed per-VM cache shares assigned once at start."""

    name = "partition"
    description = (
        "Static per-VM cache partitioning (fair-share or weighted-"
        "proportional), each tenant recycling within its own share."
    )
    config_cls = PartitionConfig
    config_field = "partition"
    registry_order = 10

    # ------------------------------------------------------------------
    def _on_attach(self, system: "ExperimentSystem") -> None:
        store = system.store
        n = max(1, getattr(system.workload, "tenant_count", 1))
        cfg = self.config
        if cfg.variant == "proportional":
            shares = proportional_shares(
                store.capacity_blocks, n, cfg.weights, cfg.min_share_blocks
            )
        else:
            shares = fair_shares(store.capacity_blocks, n, cfg.min_share_blocks)
        self._install_allocator(system, shares)

    # ------------------------------------------------------------------
    @property
    def tick_interval_us(self) -> float:
        return self.config.report_interval_us

    def start(self) -> None:
        if self._started:
            return
        self._snapshot(self.sim.now)  # the startup share assignment
        super().start()

    def on_tick(self, now: float) -> None:
        self._snapshot(now)

    def _snapshot(self, now: float) -> None:
        allocator = self.allocator
        assert allocator is not None  # _on_attach installed it
        self.decisions.append(
            PartitionDecision(
                time=now,
                shares=dict(self.shares),
                occupancy=allocator.occupancy(),
                recycled=dict(allocator.recycled),
                denied=dict(allocator.denied),
            )
        )

    # ------------------------------------------------------------------
    def summary_stats(self) -> dict[str, Any]:
        return {"variant": self.config.variant, **self.allocator_summary()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticPartitionScheme({self.config.variant}, "
            f"shares={self.shares})"
        )


register_scheme(StaticPartitionScheme)
