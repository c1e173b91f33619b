"""Efficiency-aware dynamic cache-share allocation.

The utility-based line of the multi-tenant caching literature (UCP,
Centaur, CloudCache): instead of freezing per-VM shares, observe each
tenant's *hit-ratio curve* — the (share, hit ratio) points the run
actually visits — and every decision interval move capacity toward the
tenants that convert extra blocks into hits.

Per tick the scheme:

1. reads each tenant's read hit/miss block deltas for the window off
   the cache datapath's per-tenant counters;
2. appends a ``(share, hit_ratio)`` point to the tenant's observed
   curve and smooths the tenant's miss pressure (missed read blocks per
   window) with an EWMA;
3. ranks tenants by smoothed miss pressure, excluding tenants whose
   observed curve says more cache has not been helping (the last slope
   across distinct shares is ``<= 0``) — that is the efficiency gate;
4. moves at most ``max_step_blocks`` of quota from the lowest-pressure
   tenant with room above ``min_share_blocks`` to the highest-pressure
   eligible tenant, and logs a :class:`ShareDecision`.

Shares are enforced by the same per-tenant replacement as the static
partitioner (:class:`~repro.schemes.allocation.QuotaAllocator`): a
tenant at quota recycles its own oldest clean block, and a tenant
whose share shrank drains toward its new quota through bounded extra
recycling (capacity isolation; set-level victim selection stays
shared — see :mod:`repro.schemes.allocation`).  Everything is
deterministic — ties break on tenant id — so runs fingerprint
bit-identically across processes and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.schemes.allocation import CapacityScheme, fair_shares
from repro.schemes.configs import DynShareConfig
from repro.schemes.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = ["DynShareConfig", "ShareDecision", "DynamicShareScheme"]


@dataclass(frozen=True)
class ShareDecision:
    """One reallocation evaluation (the scheme's timeline row)."""

    time: float
    shares: dict[int, int]
    hit_ratios: dict[int, float]
    pressure: dict[int, float]
    moved_blocks: int
    from_tenant: int | None
    to_tenant: int | None


class DynamicShareScheme(CapacityScheme):
    """Reassigns per-VM cache shares from observed hit-ratio curves."""

    name = "dynshare"
    description = (
        "Efficiency-aware dynamic allocator: moves per-VM cache share "
        "toward tenants whose observed hit-ratio curves still improve."
    )
    config_cls = DynShareConfig
    config_field = "dynshare"
    registry_order = 11

    def __init__(self, config: DynShareConfig | None = None) -> None:
        super().__init__(config)
        #: Observed per-tenant hit-ratio curves: ``tenant -> [(share, hr)]``.
        self.curves: dict[int, list[tuple[int, float]]] = {}
        self._pressure: dict[int, float] = {}
        self._prev_hits: dict[int, int] = {}
        self._prev_misses: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _on_attach(self, system: "ExperimentSystem") -> None:
        n = max(1, getattr(system.workload, "tenant_count", 1))
        self._install_allocator(
            system,
            fair_shares(
                system.store.capacity_blocks, n, self.config.min_share_blocks
            ),
        )
        self.curves = {tid: [] for tid in self.shares}

    # ------------------------------------------------------------------
    @property
    def tick_interval_us(self) -> float:
        return self.config.decision_interval_us

    def on_tick(self, now: float) -> None:
        cfg = self.config
        tenants = sorted(self.shares)
        hit_ratios: dict[int, float] = {}
        tenant_stats = self.controller.stats.tenants
        for tid in tenants:
            stats = tenant_stats.get(tid)
            hits = stats.read_hit_blocks if stats is not None else 0
            misses = stats.read_miss_blocks if stats is not None else 0
            d_hits = hits - self._prev_hits.get(tid, 0)
            d_misses = misses - self._prev_misses.get(tid, 0)
            self._prev_hits[tid] = hits
            self._prev_misses[tid] = misses
            window = d_hits + d_misses
            hr = d_hits / window if window else 0.0
            hit_ratios[tid] = hr
            curve = self.curves[tid]
            curve.append((self.shares[tid], hr))
            del curve[: -cfg.curve_points]
            prev = self._pressure.get(tid, float(d_misses))
            self._pressure[tid] = (1 - cfg.ewma) * prev + cfg.ewma * d_misses

        moved, src, dst = self._rebalance(tenants)
        self.decisions.append(
            ShareDecision(
                time=now,
                shares=dict(self.shares),
                hit_ratios=hit_ratios,
                pressure=dict(self._pressure),
                moved_blocks=moved,
                from_tenant=src,
                to_tenant=dst,
            )
        )

    # ------------------------------------------------------------------
    def _curve_slope(self, tenant_id: int) -> float | None:
        """Hit-ratio gain per extra block, from the last two distinct
        shares the tenant's observed curve visited (``None`` until the
        curve has two such points)."""
        curve = self.curves[tenant_id]
        if len(curve) < 2:
            return None
        share_b, hr_b = curve[-1]
        for share_a, hr_a in reversed(curve[:-1]):
            if share_a != share_b:
                return (hr_b - hr_a) / (share_b - share_a)
        return None

    def _rebalance(
        self, tenants: list[int]
    ) -> tuple[int, int | None, int | None]:
        """Move quota from the calmest tenant to the neediest eligible one."""
        if len(tenants) < 2:
            return 0, None, None
        cfg = self.config

        def eligible(tid: int) -> bool:
            # Efficiency gate: a tenant whose observed curve shows no
            # hit-ratio gain from extra share does not receive more.
            slope = self._curve_slope(tid)
            return slope is None or slope > 0.0

        # Highest smoothed miss pressure wins; ties break on tenant id.
        gainers = [t for t in tenants if eligible(t)]
        if not gainers:
            return 0, None, None
        dst = max(gainers, key=lambda t: (self._pressure[t], -t))
        donors = [
            t
            for t in tenants
            if t != dst and self.shares[t] > cfg.min_share_blocks
        ]
        if not donors:
            return 0, None, None
        src = min(donors, key=lambda t: (self._pressure[t], t))
        if self._pressure[dst] <= self._pressure[src]:
            return 0, None, None
        moved = min(
            cfg.max_step_blocks, self.shares[src] - cfg.min_share_blocks
        )
        if moved <= 0:
            return 0, None, None
        self.shares[src] -= moved
        self.shares[dst] += moved
        assert self.allocator is not None  # _on_attach installed it
        self.allocator.set_quotas(self.shares)
        return moved, src, dst

    # ------------------------------------------------------------------
    def summary_stats(self) -> dict[str, Any]:
        return {
            **self.allocator_summary(),
            "reallocations": sum(
                1 for d in self.decisions if d.moved_blocks > 0
            ),
            "blocks_moved": sum(d.moved_blocks for d in self.decisions),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicShareScheme(shares={self.shares})"


register_scheme(DynamicShareScheme)
