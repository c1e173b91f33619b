"""The cache datapath: application requests -> tagged device operations.

This is the EnhanceIO-equivalent module.  Every application request is
expanded, block by block, into SSD and HDD operations carrying the
paper's queue tags:

- a read hit becomes an SSD read (``R``);
- a read miss becomes an HDD read (``R``) plus — policy permitting — an
  asynchronous SSD promotion write (``P``);
- a write becomes an SSD write (``W``), an HDD write (``W``), or both,
  depending on the active :class:`~repro.cache.write_policy.WritePolicy`;
- evicting a dirty victim becomes an SSD read (``E``) chained to an HDD
  write-back (``E``).

The controller supports **live policy switching** (LBICA's actuator) and
**tail bypass**: :meth:`CacheController.bypass_tail` steals ops from the
SSD queue tail and redirects them to the disk
(:meth:`CacheController.redirect_to_disk`), keeping cache metadata
consistent when writes or promotions are diverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.cache.store import CacheStore
from repro.cache.write_policy import PolicyBehavior, WritePolicy, behavior_for
from repro.devices.base import StorageDevice
from repro.io.request import DeviceOp, OpTag, Request
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import CacheAllocator

__all__ = ["CacheController", "CacheStats", "TenantStats", "PolicyChange"]

# The queue tags as plain module globals: ``OpTag.READ`` goes through the
# enum metaclass's ``__getattr__`` on every lookup, several times slower
# than a global read, and the datapath tags every op it makes.
_READ = OpTag.READ
_WRITE = OpTag.WRITE
_PROMOTE = OpTag.PROMOTE
_EVICT = OpTag.EVICT


@dataclass(frozen=True)
class PolicyChange:
    """One policy-switch record (for the Fig. 6 timeline)."""

    time: float
    policy: WritePolicy
    promote_on_miss: bool


@dataclass(slots=True)
class TenantStats:
    """Per-tenant (per-VM) slice of the cache datapath counters."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    read_hit_blocks: int = 0
    read_miss_blocks: int = 0
    completed: int = 0
    bypassed: int = 0
    total_latency: float = 0.0
    max_latency: float = 0.0

    @property
    def read_hit_ratio(self) -> float:
        """Block-level read hit ratio for this tenant."""
        total = self.read_hit_blocks + self.read_miss_blocks
        return self.read_hit_blocks / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean application-request latency for this tenant (µs)."""
        return self.total_latency / self.completed if self.completed else 0.0


@dataclass(slots=True)
class CacheStats:
    """Lifetime counters for the cache datapath."""

    requests: int = 0
    read_hit_blocks: int = 0
    read_miss_blocks: int = 0
    promotes_issued: int = 0
    promotes_cancelled: int = 0
    evict_flushes: int = 0
    writes_bypassed: int = 0
    reads_bypassed: int = 0
    policy_switches: int = 0
    completed: int = 0
    total_latency: float = 0.0
    policy_log: list[PolicyChange] = field(default_factory=list)
    tenants: dict[int, TenantStats] = field(default_factory=dict)

    def tenant(self, tenant_id: int) -> TenantStats:
        """The (auto-created) per-tenant counter slice."""
        stats = self.tenants.get(tenant_id)
        if stats is None:
            stats = self.tenants[tenant_id] = TenantStats()
        return stats

    @property
    def read_hit_ratio(self) -> float:
        """Block-level read hit ratio."""
        total = self.read_hit_blocks + self.read_miss_blocks
        return self.read_hit_blocks / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean application-request latency (µs)."""
        return self.total_latency / self.completed if self.completed else 0.0


class CacheController:
    """Routes application I/O through the SSD cache and HDD subsystem.

    Args:
        sim: The simulator.
        ssd: Cache-tier device.
        hdd: Disk-subsystem device.
        store: Cache metadata store.
        policy: Initial write policy (the paper starts every run in WB).
        promote_on_miss: Optional override of the policy's promotion
            behaviour (used by SIB's WT+WO hybrid).
    """

    def __init__(
        self,
        sim: Simulator,
        ssd: StorageDevice,
        hdd: StorageDevice,
        store: CacheStore,
        policy: WritePolicy = WritePolicy.WB,
        promote_on_miss: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.ssd = ssd
        self.hdd = hdd
        self.store = store
        self.stats = CacheStats()
        #: Optional per-tenant capacity allocator (the
        #: :class:`~repro.schemes.base.CacheAllocator` protocol) a
        #: capacity-partitioning scheme installs.  ``None`` (the
        #: default) skips every allocator call site, keeping the shared
        #: datapath bit-identical to an allocator-free build.
        self.allocator: Optional["CacheAllocator"] = None
        # Pre-bound completion callbacks: the single-block read path
        # hands one of these to every DeviceOp, and an attribute read is
        # cheaper than re-binding the method per request.
        self._sync_done_cb = self._sync_done
        self._miss_read_done_cb = self._miss_read_done
        self._completion_hooks: list[Callable[[Request], None]] = []
        self._flushing: set[int] = set()
        self._behavior = behavior_for(policy)
        if promote_on_miss is not None:
            self._behavior = self._behavior.with_promotion(promote_on_miss)
        self.stats.policy_log.append(
            PolicyChange(0.0, self._behavior.policy, self._behavior.promote_on_miss)
        )

    # ------------------------------------------------------------------
    # Policy control (LBICA's actuator)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> WritePolicy:
        """Currently assigned write policy."""
        return self._behavior.policy

    @property
    def behavior(self) -> PolicyBehavior:
        """Currently active routing behaviour."""
        return self._behavior

    def set_policy(
        self, policy: WritePolicy, promote_on_miss: Optional[bool] = None
    ) -> bool:
        """Switch the write policy at run time.

        Returns:
            ``True`` if the effective behaviour actually changed.
        """
        behavior = behavior_for(policy)
        if promote_on_miss is not None:
            behavior = behavior.with_promotion(promote_on_miss)
        if behavior == self._behavior:
            return False
        self._behavior = behavior
        self.stats.policy_switches += 1
        self.stats.policy_log.append(
            PolicyChange(self.sim.now, behavior.policy, behavior.promote_on_miss)
        )
        return True

    def add_completion_hook(self, fn: Callable[[Request], None]) -> None:
        """Register ``fn(request)`` to run on every request completion."""
        self._completion_hooks.append(fn)

    def remove_completion_hook(self, fn: Callable[[Request], None]) -> None:
        """Deregister a hook added via :meth:`add_completion_hook`."""
        if fn in self._completion_hooks:
            self._completion_hooks.remove(fn)

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Point-in-time datapath state for the obs layer (JSON-ready).

        A pull-style read of existing counters — called once per
        monitoring interval, never from the per-request hot paths.
        """
        stats = self.stats
        return {
            "policy": self._behavior.policy.name,
            "read_hit_ratio": stats.read_hit_ratio,
            "requests": stats.requests,
            "completed": stats.completed,
            "reads_bypassed": stats.reads_bypassed,
            "writes_bypassed": stats.writes_bypassed,
            "dirty_blocks": self.store.dirty_count,
            "occupied_blocks": self.store.occupied,
            "tenants": {
                tid: {
                    "read_hit_ratio": ts.read_hit_ratio,
                    "completed": ts.completed,
                    "bypassed": ts.bypassed,
                }
                for tid, ts in sorted(stats.tenants.items())
            },
        }

    # ------------------------------------------------------------------
    # Application entry point
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Route one application request through the cache."""
        stats = self.stats
        stats.requests += 1
        # Inlined stats.tenant(): one dict probe per request.
        tenants = stats.tenants
        tenant = tenants.get(request.tenant_id)
        if tenant is None:
            tenant = tenants[request.tenant_id] = TenantStats()
        tenant.requests += 1
        if request.is_write:
            tenant.writes += 1
            self._do_write(request, tenant)
            return
        tenant.reads += 1
        if request.nblocks != 1:
            self._do_read(request, tenant)
            return
        # Single-block reads, the dominant datapath operation by far
        # (read-mostly workloads with 4-KiB requests), are handled here:
        # the accounting of one pass of _do_read's loop, minus a call.
        now = self.sim.now
        request._outstanding += 1  # inlined add_wait(1)
        lba = request.lba
        block = self.store.lookup(lba, now)
        if block is not None:
            stats.read_hit_blocks += 1
            tenant.read_hit_blocks += 1
            op = DeviceOp(
                lba,
                1,
                False,
                _READ,
                request,
                True,
                not block.dirty,
                self._sync_done_cb,
            )
            self.ssd.submit(op)
        else:
            stats.read_miss_blocks += 1
            tenant.read_miss_blocks += 1
            op = DeviceOp(
                lba,
                1,
                False,
                _READ,
                request,
                True,
                False,
                self._miss_read_done_cb,
            )
            self.hdd.submit(op)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _do_read(self, request: Request, tenant: TenantStats) -> None:
        # Per-block expansion is the datapath's inner loop; every
        # loop-invariant attribute chain is hoisted.
        now = self.sim.now
        stats = self.stats
        lookup = self.store.lookup
        ssd, hdd = self.ssd, self.hdd
        # Every block contributes exactly one synchronous wait, and
        # completions are only ever delivered through the calendar, so
        # the whole request's waits can be credited up front.
        request.add_wait(request.nblocks)
        for lba in range(request.lba, request.end_lba):
            block = lookup(lba, now)
            if block is not None:
                stats.read_hit_blocks += 1
                tenant.read_hit_blocks += 1
                op = DeviceOp(
                    lba,
                    1,
                    False,
                    _READ,
                    request,
                    True,
                    not block.dirty,
                    self._sync_done,
                )
                ssd.submit(op)
            else:
                stats.read_miss_blocks += 1
                tenant.read_miss_blocks += 1
                op = DeviceOp(
                    lba,
                    1,
                    False,
                    _READ,
                    request,
                    True,
                    False,
                    self._miss_read_done,
                )
                hdd.submit(op)

    def _miss_read_done(self, op: DeviceOp) -> None:
        """A miss read returned from the disk: maybe promote, then complete."""
        if self._behavior.promote_on_miss:
            allocator = self.allocator
            if allocator is None:
                self._promote(op.lba)
            else:
                request = op.request
                tenant_id = request.tenant_id if request is not None else 0
                if allocator.admit(tenant_id, op.lba):
                    self._promote(op.lba, tenant_id)
                # denied: the tenant's cache share is exhausted — the
                # block is served from the disk and simply not promoted
        self._sync_done(op)

    def _promote(self, lba: int, tenant_id: int = 0) -> None:
        """Insert ``lba`` and issue the asynchronous promotion write (P)."""
        now = self.sim.now
        _, eviction = self.store.insert(lba, now, dirty=False)
        allocator = self.allocator
        if allocator is not None:
            allocator.note_insert(tenant_id, lba)
            if eviction is not None:
                allocator.note_remove(eviction.lba)
        if eviction is not None and eviction.was_dirty:
            self._flush_evicted(eviction.lba)
        self.stats.promotes_issued += 1
        # Positional arguments, like the read and write paths: (lba,
        # nblocks, is_write, tag, request, sync, stealable[, on_complete]).
        self.ssd.submit(DeviceOp(lba, 1, True, _PROMOTE, None, False, True))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _do_write(self, request: Request, tenant: TenantStats) -> None:
        now = self.sim.now
        behavior = self._behavior
        stats = self.stats
        store = self.store
        ssd, hdd = self.ssd, self.hdd
        sync_done = self._sync_done_cb
        invalidate_on_write = behavior.invalidate_on_write
        cache_writes = behavior.cache_writes
        writes_through = behavior.writes_through
        writes_dirty = behavior.writes_dirty
        allocator = self.allocator
        tenant_id = request.tenant_id
        for lba in range(request.lba, request.end_lba):
            if invalidate_on_write:
                # RO: the write supersedes any cached copy; the new data
                # goes straight to the disk.
                if store.invalidate(lba) and allocator is not None:
                    allocator.note_remove(lba)
                stats.writes_bypassed += 1
                op = DeviceOp(
                    lba, 1, True, _WRITE, request, True, False, sync_done
                )
                request._outstanding += 1  # inlined add_wait()
                hdd.submit(op)
                continue

            if cache_writes:
                if allocator is not None and not allocator.admit(tenant_id, lba):
                    # The tenant's cache share is exhausted: write around
                    # the cache straight to the disk (soft partitioning).
                    stats.writes_bypassed += 1
                    op = DeviceOp(
                        lba, 1, True, _WRITE, request, True, False, sync_done
                    )
                    request._outstanding += 1  # inlined add_wait()
                    hdd.submit(op)
                    continue
                _, eviction = store.insert(lba, now, dirty=writes_dirty)
                if allocator is not None:
                    allocator.note_insert(tenant_id, lba)
                    if eviction is not None:
                        allocator.note_remove(eviction.lba)
                if eviction is not None and eviction.was_dirty:
                    self._flush_evicted(eviction.lba)
                op = DeviceOp(
                    lba, 1, True, _WRITE, request, True, True, sync_done
                )
                request._outstanding += 1  # inlined add_wait()
                ssd.submit(op)

            if writes_through:
                op = DeviceOp(
                    lba, 1, True, _WRITE, request, True, False, sync_done
                )
                request._outstanding += 1  # inlined add_wait()
                hdd.submit(op)

    # ------------------------------------------------------------------
    # Eviction write-back (E traffic)
    # ------------------------------------------------------------------
    def _flush_evicted(self, lba: int) -> None:
        """Flush a dirty victim: SSD evict-read (E) then HDD write-back (E)."""
        self.stats.evict_flushes += 1
        self.ssd.submit(
            DeviceOp(
                lba, 1, False, _EVICT, None, False, False, self._evict_read_done
            )
        )

    def _evict_read_done(self, op: DeviceOp) -> None:
        self.hdd.submit(
            DeviceOp(op.lba, op.nblocks, True, _EVICT, None, False, False)
        )

    def flush_block(self, lba: int) -> bool:
        """Flush one resident dirty block in place (background write-back).

        Returns:
            ``True`` if a flush was started.
        """
        block = self.store.peek(lba)
        if block is None or not block.dirty or lba in self._flushing:
            return False
        self._flushing.add(lba)
        self.stats.evict_flushes += 1
        self.ssd.submit(
            DeviceOp(
                lba, 1, False, _EVICT, None, False, False, self._bg_flush_read_done
            )
        )
        return True

    def _bg_flush_read_done(self, op: DeviceOp) -> None:
        self.hdd.submit(
            DeviceOp(
                op.lba,
                op.nblocks,
                True,
                _EVICT,
                None,
                False,
                False,
                self._bg_flush_write_done,
            )
        )

    def _bg_flush_write_done(self, op: DeviceOp) -> None:
        for lba in range(op.lba, op.end_lba):
            self.store.mark_clean(lba)
            self._flushing.discard(lba)

    # ------------------------------------------------------------------
    # Tenant service operations (churn reclaim / rewarm)
    # ------------------------------------------------------------------
    def reclaim_range(self, lo_lba: int, hi_lba: int) -> tuple[int, int]:
        """Evict every resident block in ``[lo_lba, hi_lba)``.

        This is the tenant-departure reclaim path: a departing tenant's
        LBA region is dropped from the cache and its dirty blocks are
        written back to the disk through the regular eviction chain
        (``E`` traffic) — the data must land on the HDD before the share
        can be handed to someone else.  A block whose background flush
        is already in flight is invalidated without a second write-back
        (the in-flight chain completes harmlessly; :meth:`mark_clean`
        tolerates the missing metadata).

        Returns:
            ``(reclaimed, flushed)`` — blocks invalidated and dirty
            write-backs issued.
        """
        victims = [
            (block.lba, block.dirty)
            for block in self.store
            if lo_lba <= block.lba < hi_lba
        ]
        allocator = self.allocator
        reclaimed = flushed = 0
        for lba, dirty in victims:
            in_flight = lba in self._flushing
            if not self.store.invalidate(lba):
                continue
            reclaimed += 1
            if allocator is not None:
                allocator.note_remove(lba)
            if dirty and not in_flight:
                flushed += 1
                self._flush_evicted(lba)
        return reclaimed, flushed

    def rewarm_block(self, lba: int, tenant_id: int, dirty: bool = False) -> bool:
        """Insert one warm block on behalf of an arriving tenant.

        Unlike the run-start warm pre-load (which predates any
        allocator), a mid-run rewarm honours quota admission, the
        allocator's ownership accounting, and the regular dirty-victim
        write-back.

        Returns:
            ``True`` if the block was inserted.
        """
        if self.store.peek(lba) is not None:
            return False
        allocator = self.allocator
        if allocator is not None and not allocator.admit(tenant_id, lba):
            return False
        _, eviction = self.store.insert(lba, self.sim.now, dirty=dirty)
        if allocator is not None:
            allocator.note_insert(tenant_id, lba)
            if eviction is not None:
                allocator.note_remove(eviction.lba)
        if eviction is not None and eviction.was_dirty:
            self._flush_evicted(eviction.lba)
        return True

    # ------------------------------------------------------------------
    # Bypass support (LBICA's Group-3 rule and SIB)
    # ------------------------------------------------------------------
    def bypass_tail(self, max_ops: int) -> int:
        """Move up to ``max_ops`` ops from the SSD queue tail to the disk.

        Steals redirectable ops (:meth:`op_redirectable`) walking from the
        tail toward the head, re-routes each with
        :meth:`redirect_to_disk`, and returns how many moved.
        """
        stolen = self.ssd.queue.steal_tail(
            max_ops, self.sim.now, predicate=self.op_redirectable
        )
        for op in stolen:
            self.redirect_to_disk(op)
        return len(stolen)

    def op_redirectable(self, op: DeviceOp) -> bool:
        """Whether a pending SSD op may be redirected to the disk.

        Application writes and promotions are always redirectable;
        application reads only while every block they cover is clean (a
        dirty block's only valid copy lives on the SSD).  Evict reads are
        never redirectable.
        """
        if op.tag is _WRITE or op.tag is _PROMOTE:
            return True
        if op.tag is _READ:
            for lba in range(op.lba, op.end_lba):
                block = self.store.peek(lba)
                if block is not None and block.dirty:
                    return False
            return True
        return False

    def redirect_to_disk(self, op: DeviceOp) -> None:
        """Re-route an op stolen from the SSD queue to the disk subsystem.

        - ``W``: the write is served by the HDD; any cache copy covering
          the range is invalidated (it was never written to the SSD).
          Under a write-through policy the HDD mirror op is already in
          flight, so the SSD leg is simply cancelled and its completion
          charged immediately (this is SIB's bypass path).
        - ``R``: the read is served by the HDD (blocks are clean).
        - ``P``: the promotion is simply cancelled (nobody waits on it)
          and the speculative metadata insertion undone.
        """
        allocator = self.allocator
        if op.tag is _PROMOTE:
            self.stats.promotes_cancelled += 1 + len(op.merged)
            for child in (op, *op.merged):
                for lba in range(child.lba, child.end_lba):
                    if self.store.invalidate(lba) and allocator is not None:
                        allocator.note_remove(lba)
            return
        if op.tag is _WRITE:
            self.stats.writes_bypassed += 1 + len(op.merged)
            for child in (op, *op.merged):
                for lba in range(child.lba, child.end_lba):
                    if self.store.invalidate(lba) and allocator is not None:
                        allocator.note_remove(lba)
                if child.request is not None:
                    child.request.bypassed = True
            if self._behavior.writes_through:
                # The disk copy is already being written by the mirror op;
                # dropping the SSD leg completes it for free.
                for child in (op, *op.merged):
                    self._sync_done(child)
                return
        elif op.tag is _READ:
            self.stats.reads_bypassed += 1 + len(op.merged)
            for child in (op, *op.merged):
                if child.request is not None:
                    child.request.bypassed = True
        else:  # pragma: no cover - filtered out by op_redirectable
            raise ValueError(f"cannot redirect {op.tag} op")
        self.hdd.submit(op)

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _sync_done(self, op: DeviceOp) -> None:
        request = op.request
        if request is None or not op.sync:
            return
        outstanding = request._outstanding - 1
        if outstanding < 0:
            raise RuntimeError(f"request {request.req_id}: completion underflow")
        request._outstanding = outstanding
        if outstanding == 0:
            request.complete_time = self.sim.now
            stats = self.stats
            stats.completed += 1
            latency = request.complete_time - request.arrival
            stats.total_latency += latency
            tenants = stats.tenants
            tenant = tenants.get(request.tenant_id)
            if tenant is None:
                tenant = tenants[request.tenant_id] = TenantStats()
            tenant.completed += 1
            tenant.total_latency += latency
            if latency > tenant.max_latency:
                tenant.max_latency = latency
            if request.bypassed:
                tenant.bypassed += 1
            for hook in self._completion_hooks:
                hook(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheController(policy={self.policy}, "
            f"hit={self.stats.read_hit_ratio:.2%})"
        )
