"""SLO-driven cache-share stealing.

The third scheme family: where ``partition`` freezes shares and
``dynshare`` chases hit-ratio efficiency, ``slosteal`` optimizes for
*objectives* — every decision interval it takes cache share away from
tenants comfortably inside their service-level objectives and gives it
to the tenant violating hardest.

Per tick the scheme:

1. collects each tenant's windowed p99 application latency (from a
   completion hook) and windowed read hit ratio (from the datapath's
   per-tenant counters);
2. scores each tenant with a **violation ratio** — how far outside its
   objectives it sits.  A tenant with declared SLO targets (the
   scenario's ``slo`` blocks, surfaced via the workload's
   ``slo_targets()``) is judged against them; a tenant without targets
   is judged against the fleet's mean windowed p99, so the scheme
   degrades to latency fairness when no SLOs are declared;
3. moves at most ``max_step_blocks`` of quota from the most
   comfortable donor (ratio at or below ``donor_headroom``, share above
   ``min_share_blocks``) to the worst violator, and logs a
   :class:`SloStealDecision`.

Shares are enforced by the same per-tenant replacement as the other
capacity schemes (:class:`~repro.schemes.allocation.QuotaAllocator`).
Every ranking breaks ties on tenant id, so runs fingerprint
bit-identically across processes and platforms.  Under churn the
inherited :meth:`~repro.schemes.allocation.CapacityScheme.on_tenant_departed`
releases a departed tenant's share and redistributes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.analysis.metrics import percentile
from repro.io.request import Request
from repro.schemes.allocation import CapacityScheme, fair_shares
from repro.schemes.configs import SloStealConfig
from repro.schemes.registry import register_scheme
from repro.service.slo import SloTarget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = ["SloStealConfig", "SloStealDecision", "SloStealScheme"]


@dataclass(frozen=True)
class SloStealDecision:
    """One stealing evaluation (the scheme's timeline row)."""

    time: float
    shares: dict[int, int]
    p99_latency_us: dict[int, float]
    hit_ratios: dict[int, float]
    ratios: dict[int, float]
    violations: int
    moved_blocks: int
    from_tenant: int | None
    to_tenant: int | None


class SloStealScheme(CapacityScheme):
    """Steals cache share from SLO over-achievers for SLO violators."""

    name = "slosteal"
    description = (
        "SLO-aware allocator: steals cache share from tenants inside "
        "their SLO targets for the tenant violating hardest."
    )
    config_cls = SloStealConfig
    config_field = "slosteal"
    registry_order = 12

    def __init__(self, config: SloStealConfig | None = None) -> None:
        super().__init__(config)
        #: Declared per-tenant objectives (empty when the scenario has none).
        self.targets: dict[int, SloTarget] = {}
        self._window: dict[int, list[float]] = {}
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
        slo_targets = getattr(system.workload, "slo_targets", None)
        self.targets = dict(slo_targets()) if callable(slo_targets) else {}
        system.controller.add_completion_hook(self._record_completion)

    def _on_detach(self, system: "ExperimentSystem") -> None:
        system.controller.remove_completion_hook(self._record_completion)
        super()._on_detach(system)

    def _record_completion(self, request: Request) -> None:
        lats = self._window.get(request.tenant_id)
        if lats is None:
            lats = self._window[request.tenant_id] = []
        lats.append(request.complete_time - request.arrival)

    def on_tenant_departed(self, tenant_id: int) -> None:
        super().on_tenant_departed(tenant_id)
        self._window.pop(tenant_id, None)

    # ------------------------------------------------------------------
    @property
    def tick_interval_us(self) -> float:
        return self.config.decision_interval_us

    def on_tick(self, now: float) -> None:
        tenants = sorted(self.shares)
        p99s: dict[int, float] = {}
        hit_ratios: dict[int, float] = {}
        windows: dict[int, int] = {}
        tenant_stats = self.controller.stats.tenants
        for tid in tenants:
            lats = self._window.pop(tid, [])
            stats = tenant_stats.get(tid)
            hits = stats.read_hit_blocks if stats is not None else 0
            misses = stats.read_miss_blocks if stats is not None else 0
            d_hits = hits - self._prev_hits.get(tid, 0)
            d_misses = misses - self._prev_misses.get(tid, 0)
            self._prev_hits[tid] = hits
            self._prev_misses[tid] = misses
            window = d_hits + d_misses
            windows[tid] = window
            p99s[tid] = percentile(lats, 99.0) if lats else 0.0
            hit_ratios[tid] = d_hits / window if window else 0.0

        ratios = self._violation_ratios(tenants, p99s, hit_ratios, windows)
        moved, src, dst = self._steal(tenants, ratios)
        self.decisions.append(
            SloStealDecision(
                time=now,
                shares=dict(self.shares),
                p99_latency_us=p99s,
                hit_ratios=hit_ratios,
                ratios=ratios,
                violations=sum(1 for r in ratios.values() if r > 1.0),
                moved_blocks=moved,
                from_tenant=src,
                to_tenant=dst,
            )
        )

    # ------------------------------------------------------------------
    def _violation_ratios(
        self,
        tenants: list[int],
        p99s: dict[int, float],
        hit_ratios: dict[int, float],
        windows: dict[int, int],
    ) -> dict[int, float]:
        """How far outside its objectives each tenant sits (> 1 = violating).

        Declared targets dominate; tenants without any are scored
        against the fleet's mean windowed p99 (latency fairness), and a
        tenant idle for the window scores 0 (a natural donor).
        """
        active = [p99s[t] for t in tenants if p99s[t] > 0.0]
        fleet_mean = sum(active) / len(active) if active else 0.0
        ratios: dict[int, float] = {}
        for tid in tenants:
            target = self.targets.get(tid)
            if target is None:
                ratios[tid] = p99s[tid] / fleet_mean if fleet_mean > 0 else 0.0
                continue
            ratio = 0.0
            if target.p99_latency_us is not None and p99s[tid] > 0.0:
                ratio = p99s[tid] / target.p99_latency_us
            if target.min_hit_ratio is not None and windows[tid] > 0:
                hr = hit_ratios[tid]
                if hr > 0.0:
                    ratio = max(ratio, target.min_hit_ratio / hr)
                elif target.min_hit_ratio > 0.0:
                    # every windowed read missed: maximally violating
                    ratio = max(ratio, 2.0)
            ratios[tid] = ratio
        return ratios

    def _steal(
        self, tenants: list[int], ratios: dict[int, float]
    ) -> tuple[int, int | None, int | None]:
        """Move quota from the most comfortable donor to the worst violator."""
        if len(tenants) < 2:
            return 0, None, None
        cfg = self.config
        violators = [t for t in tenants if ratios[t] > 1.0]
        if not violators:
            return 0, None, None
        dst = max(violators, key=lambda t: (ratios[t], -t))
        donors = [
            t
            for t in tenants
            if t != dst
            and ratios[t] <= cfg.donor_headroom
            and self.shares[t] > cfg.min_share_blocks
        ]
        if not donors:
            return 0, None, None
        src = min(donors, key=lambda t: (ratios[t], t))
        moved = min(cfg.max_step_blocks, self.shares[src] - cfg.min_share_blocks)
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
            "reallocations": sum(1 for d in self.decisions if d.moved_blocks > 0),
            "blocks_moved": sum(d.moved_blocks for d in self.decisions),
            "violation_ticks": sum(1 for d in self.decisions if d.violations),
            "declared_targets": sorted(self.targets),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SloStealScheme(shares={self.shares})"


register_scheme(SloStealScheme)
