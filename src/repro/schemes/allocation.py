"""Per-tenant cache-capacity accounting for allocation schemes.

The shared :class:`~repro.cache.store.CacheStore` has no notion of
tenants — blocks are blocks.  :class:`QuotaAllocator` layers per-VM
quotas on top without touching the store: the cache controller consults
:meth:`admit` before growing the cache on a tenant's behalf (promotions
and cached writes) and reports every insertion/removal, so the allocator
keeps an exact ``tenant -> resident blocks`` map.

Enforcement is per-tenant replacement, not denial-until-frozen: a
tenant at quota **recycles its own share** — its oldest *clean* owned
block is dropped (a clean copy needs no write-back) to make room for
the new insertion — so the cache keeps churning at saturation and a
tenant whose quota shrank drains toward it.  Only a tenant whose
scanned share is entirely dirty is denied, and the background
writeback flusher cleans blocks over time, so that state is transient.

What is guaranteed is **capacity isolation**, not set-level victim
isolation: admission bounds each tenant's total resident blocks, but
the store stays set-associative, so when two tenants' LBAs collide in
a full set the set's replacement policy may still evict a neighbour's
block (exactly as in a real shared set-associative cache).  The
accounting self-heals — the controller reports that eviction via
:meth:`note_remove`, the displaced tenant's count drops, and it may
re-grow to quota — so shares hold in aggregate even under set
collisions.

Blocks inserted outside the controller's accounting (the warm-up
pre-load) have no owner; their eviction is a no-op here and they never
count against any quota.

A saturated tenant whose share is all dirty is denied admission after
admission until the flusher catches up, and rescanning the same oldest
blocks at each denial would find nothing new.  So the allocator
remembers a futile scan.  Its answer can only change when the tenant's
owned set changes (every change is reported through
:meth:`QuotaAllocator.note_insert`, :meth:`~QuotaAllocator.note_remove`
or :meth:`~QuotaAllocator.release_tenant`) or when some block turns
clean (:attr:`CacheStore.cleaned <repro.cache.store.CacheStore.cleaned>`
counts those).  Owned blocks are always resident, so until one of those
happens a rescan would return nothing again, and it is skipped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.cache.store import CacheStore
from repro.schemes.base import Scheme, SchemeConfigLike
from repro.sim.summation import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = ["QuotaAllocator", "CapacityScheme", "fair_shares", "proportional_shares"]


def fair_shares(
    capacity_blocks: int, n_tenants: int, min_share_blocks: int
) -> dict[int, int]:
    """Equal per-tenant shares of the cache (floored at the minimum)."""
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    share = max(min_share_blocks, capacity_blocks // n_tenants)
    return {tid: share for tid in range(n_tenants)}


def proportional_shares(
    capacity_blocks: int,
    n_tenants: int,
    weights: list[float],
    min_share_blocks: int,
) -> dict[int, int]:
    """Weighted per-tenant shares (missing weights default to ``1.0``).

    Shares are ``capacity × weight / total_weight`` floored at the
    minimum share, so a zero-ish weight still leaves a tenant enough
    cache to make progress.
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    padded = [float(w) for w in weights[:n_tenants]]
    padded += [1.0] * (n_tenants - len(padded))
    if any(w <= 0 for w in padded):
        raise ValueError("partition weights must be positive")
    total = left_sum(padded)
    return {
        tid: max(min_share_blocks, int(capacity_blocks * w / total))
        for tid, w in enumerate(padded)
    }


class QuotaAllocator:
    """Exact per-tenant resident-block accounting with quota admission.

    Implements the :class:`~repro.schemes.base.CacheAllocator` protocol
    the cache controller consults.

    Args:
        store: The shared cache store (consulted so re-writes of
            already-resident blocks are always admitted — they grow
            nothing — and so recycling can check victim dirtiness).
        default_quota_blocks: Quota applied to tenants that were never
            given an explicit one via :meth:`set_quota`.
        recycle_scan_limit: How many of a tenant's oldest owned blocks
            :meth:`admit` scans for a clean recycling victim before
            giving up and denying (bounds per-admission cost).
        drain_limit: Most blocks one admission may recycle when the
            tenant sits *above* its quota (a dynamic scheme shrank it):
            each admission then frees extra blocks, so the tenant
            converges onto the new share instead of churning above it
            forever, while the per-admission burst stays bounded.

    A scan that finds no clean block is remembered per tenant until its
    inputs change (see the module docstring), so repeated denials of an
    all-dirty share cost no rescans.
    """

    def __init__(
        self,
        store: CacheStore,
        default_quota_blocks: int,
        recycle_scan_limit: int = 64,
        drain_limit: int = 8,
    ) -> None:
        if default_quota_blocks < 0:
            raise ValueError("default_quota_blocks must be non-negative")
        if recycle_scan_limit < 1:
            raise ValueError("recycle_scan_limit must be >= 1")
        if drain_limit < 1:
            raise ValueError("drain_limit must be >= 1")
        self.store = store
        self.default_quota_blocks = default_quota_blocks
        self.recycle_scan_limit = recycle_scan_limit
        self.drain_limit = drain_limit
        self.quotas: dict[int, int] = {}
        self._owner: dict[int, int] = {}
        #: Per-tenant owned blocks in insertion order (dict-as-ordered-set).
        self._owned: dict[int, dict[int, None]] = {}
        self._counts: dict[int, int] = {}
        self.denied: dict[int, int] = {}
        self.recycled: dict[int, int] = {}
        #: Per tenant whose last recycling scan found no clean block:
        #: the store's ``cleaned`` count at that scan.  An entry is
        #: dropped when the tenant's owned set changes.
        self._futile_scan: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Quotas
    # ------------------------------------------------------------------
    def quota_for(self, tenant_id: int) -> int:
        """The tenant's current quota (blocks)."""
        return self.quotas.get(tenant_id, self.default_quota_blocks)

    def set_quota(self, tenant_id: int, blocks: int) -> None:
        """Assign a tenant's quota (enforced lazily — see module doc)."""
        if blocks < 0:
            raise ValueError("quota must be non-negative")
        self.quotas[tenant_id] = int(blocks)

    def set_quotas(self, shares: dict[int, int]) -> None:
        """Replace all explicit quotas at once."""
        self.quotas = {tid: int(blocks) for tid, blocks in shares.items()}

    # ------------------------------------------------------------------
    # CacheAllocator protocol
    # ------------------------------------------------------------------
    def admit(self, tenant_id: int, lba: int) -> bool:
        """Whether the tenant may insert ``lba``.

        Already-resident blocks are always admitted (refreshing in place
        consumes no new capacity), and an under-quota tenant always may
        grow.  A tenant *at or above* quota recycles its own share
        instead: its oldest clean owned blocks are invalidated to make
        room (counted in :attr:`recycled`; above quota, extra blocks
        drain it toward the shrunk share) and the insert admitted.
        Only when none of the scanned oldest blocks is clean — the
        share is effectively all dirty — is the admission denied
        (counted in :attr:`denied`).
        """
        if self.store.peek(lba) is not None:
            return True
        count = self._counts.get(tenant_id, 0)
        quota = self.quota_for(tenant_id)
        if count < quota:
            return True
        # At quota: one recycle makes room.  Above quota (the share was
        # shrunk mid-run): recycle extra blocks — bounded by drain_limit
        # — so the tenant converges onto its new share.
        want = min(count - quota + 1, self.drain_limit)
        freed = 0
        while freed < want and self._recycle_one(tenant_id):
            freed += 1
        if freed:
            return True
        self.denied[tenant_id] = self.denied.get(tenant_id, 0) + 1
        return False

    def _recycle_one(self, tenant_id: int) -> bool:
        """Drop the tenant's oldest clean owned block; ``True`` on success.

        Skips the scan when the tenant's last one found no clean block
        and neither its owned set nor any block's cleanness has changed.
        """
        owned = self._owned.get(tenant_id)
        if not owned:
            return False
        store = self.store
        if self._futile_scan.get(tenant_id) == store.cleaned:
            return False
        victim = store.first_clean(owned, self.recycle_scan_limit)
        if victim is None:
            self._futile_scan[tenant_id] = store.cleaned
            return False
        store.invalidate(victim)
        self.note_remove(victim)
        self.recycled[tenant_id] = self.recycled.get(tenant_id, 0) + 1
        return True

    def note_insert(self, tenant_id: int, lba: int) -> None:
        """Record a controller-mediated insertion of ``lba``."""
        prev = self._owner.get(lba)
        if prev == tenant_id:
            return
        futile_scan = self._futile_scan
        if prev is not None:
            self._counts[prev] -= 1
            owned_prev = self._owned.get(prev)
            if owned_prev is not None:
                owned_prev.pop(lba, None)
            futile_scan.pop(prev, None)
        futile_scan.pop(tenant_id, None)
        self._owner[lba] = tenant_id
        self._owned.setdefault(tenant_id, {})[lba] = None
        self._counts[tenant_id] = self._counts.get(tenant_id, 0) + 1

    def note_remove(self, lba: int) -> None:
        """Record that ``lba`` left the cache (unknown blocks ignored)."""
        tenant = self._owner.pop(lba, None)
        if tenant is not None:
            self._counts[tenant] -= 1
            owned = self._owned.get(tenant)
            if owned is not None:
                owned.pop(lba, None)
            self._futile_scan.pop(tenant, None)

    def release_tenant(self, tenant_id: int) -> list[int]:
        """Drop a departed tenant's quota and ownership accounting.

        The store is untouched — the caller reclaims the blocks through
        the controller (which reports each removal back via
        :meth:`note_remove`; releasing first keeps that a cheap no-op).

        Returns:
            The LBAs the tenant owned at release time (insertion order).
        """
        owned = self._owned.pop(tenant_id, None)
        lbas = list(owned) if owned else []
        for lba in lbas:
            self._owner.pop(lba, None)
        self._counts.pop(tenant_id, None)
        self.quotas.pop(tenant_id, None)
        self._futile_scan.pop(tenant_id, None)
        return lbas

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> dict[int, int]:
        """Resident accounted blocks per tenant (a copy)."""
        return {tid: count for tid, count in sorted(self._counts.items())}

    @property
    def total_denied(self) -> int:
        """Admissions denied over the run, all tenants."""
        return sum(self.denied.values())

    @property
    def total_recycled(self) -> int:
        """Own-share recycling evictions over the run, all tenants."""
        return sum(self.recycled.values())

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Point-in-time quota state for the obs layer (JSON-ready).

        A pull-style read of existing accounting — called once per
        monitoring interval, never from the admission hot path.
        """
        return {
            "quotas": {tid: self.quotas[tid] for tid in sorted(self.quotas)},
            "occupancy": self.occupancy(),
            "denied": self.total_denied,
            "recycled": self.total_recycled,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuotaAllocator(quotas={self.quotas}, "
            f"occupancy={self.occupancy()}, recycled={self.total_recycled}, "
            f"denied={self.total_denied})"
        )


class CapacityScheme(Scheme):
    """Shared plumbing for schemes that enforce per-tenant cache shares.

    Subclasses compute their share map and call
    :meth:`_install_allocator` from ``_on_attach``; detach teardown, the
    one quota move (:meth:`_move_quota`) and the common allocator
    summary block are provided here.
    """

    def __init__(self, config: Optional[SchemeConfigLike] = None) -> None:
        super().__init__(config)
        self.allocator: QuotaAllocator | None = None
        self.shares: dict[int, int] = {}

    def _install_allocator(
        self, system: "ExperimentSystem", shares: dict[int, int]
    ) -> None:
        """Adopt ``shares`` and install quota admission on the datapath.

        A tenant outside the assigned range (never the case for the
        registered workloads) falls back to the smallest share.
        """
        self.shares = dict(shares)
        self.allocator = QuotaAllocator(
            system.store, default_quota_blocks=min(self.shares.values())
        )
        self.allocator.set_quotas(self.shares)
        system.controller.allocator = self.allocator

    def _on_detach(self, system: "ExperimentSystem") -> None:
        if system.controller.allocator is self.allocator:
            system.controller.allocator = None

    def on_tenant_departed(self, tenant_id: int) -> None:
        """Release the departed share and redistribute it.

        The tenant's quota and ownership accounting are dropped and its
        share blocks handed out equally to the remaining tenants (the
        divmod remainder goes to the lowest ids, deterministically).
        With no remaining tenants the shares simply empty.
        """
        freed = self.shares.pop(tenant_id, 0)
        if self.allocator is None:
            return
        self.allocator.release_tenant(tenant_id)
        remaining = sorted(self.shares)
        if remaining and freed:
            bonus, extra = divmod(freed, len(remaining))
            for i, tid in enumerate(remaining):
                self.shares[tid] += bonus + (1 if i < extra else 0)
        self.allocator.set_quotas(self.shares)

    def _move_quota(
        self, src: int, dst: int, max_step_blocks: int, min_share_blocks: int
    ) -> tuple[int, Optional[int], Optional[int]]:
        """Move up to ``max_step_blocks`` of share from ``src`` to ``dst``,
        leaving ``src`` at least ``min_share_blocks``, and install the
        shares as quotas.  ``(0, None, None)`` if ``src`` has none to give.
        """
        moved = min(max_step_blocks, self.shares[src] - min_share_blocks)
        if moved <= 0:
            return 0, None, None
        self.shares[src] -= moved
        self.shares[dst] += moved
        assert self.allocator is not None  # _on_attach installed it
        self.allocator.set_quotas(self.shares)
        return moved, src, dst

    def allocator_summary(self) -> dict[str, Any]:
        """The share/occupancy/recycling counters every capacity scheme reports."""
        allocator = self.allocator
        if allocator is None:
            raise RuntimeError("allocator_summary requires an attached scheme")
        return {
            "shares": {str(t): s for t, s in sorted(self.shares.items())},
            "occupancy": {str(t): c for t, c in allocator.occupancy().items()},
            "recycled": {str(t): r for t, r in sorted(allocator.recycled.items())},
            "denied": {str(t): d for t, d in sorted(allocator.denied.items())},
            "total_recycled": allocator.total_recycled,
            "total_denied": allocator.total_denied,
        }
