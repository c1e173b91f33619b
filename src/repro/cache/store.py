"""The set-associative cache store.

Pure bookkeeping: which disk blocks are cached, which are dirty, and who
gets evicted on overflow.  No timing lives here — the
:class:`~repro.cache.controller.CacheController` turns store transitions
into device operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.cache.block import CacheBlock
from repro.cache.replacement import make_replacement_policy

__all__ = ["CacheStore", "StoreStats", "EvictionInfo"]


class EvictionInfo(NamedTuple):
    """Record of a block evicted to make room.

    A named tuple, not a frozen dataclass: one is built per eviction,
    and a frozen dataclass's ``__init__`` pays ``object.__setattr__`` for
    each field.
    """

    lba: int
    was_dirty: bool


@dataclass(slots=True)
class StoreStats:
    """Lifetime counters for the store."""

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def misses(self) -> int:
        """Lookup misses."""
        return self.lookups - self.hits

    @property
    def hit_ratio(self) -> float:
        """Hits / lookups (0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CacheStore:
    """A set-associative map of disk blocks onto the cache device.

    Args:
        capacity_blocks: Total number of cacheable 4-KiB blocks.
        associativity: Ways per set (``capacity_blocks`` must divide
            evenly; EnhanceIO uses 256-way sets, we default to 8 for
            finer-grained behaviour at simulation scale).
        replacement: Replacement policy name (``lru`` default).

    Each set is a plain ``dict`` (``lba -> CacheBlock``) whose order the
    store's one replacement policy keeps (least recently used first
    under LRU); the policy also owns every block's recency fields.
    """

    def __init__(
        self,
        capacity_blocks: int,
        associativity: int = 8,
        replacement: str = "lru",
    ) -> None:
        if capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if capacity_blocks % associativity != 0:
            raise ValueError(
                f"capacity {capacity_blocks} not divisible by associativity "
                f"{associativity}"
            )
        self.capacity_blocks = capacity_blocks
        self.associativity = associativity
        self.num_sets = capacity_blocks // associativity
        self.replacement_name = replacement
        self._policy = make_replacement_policy(replacement)
        # Bound once: every hit and refreshing re-insert calls it.
        self._on_access = self._policy.on_access
        self._sets: list[dict[int, CacheBlock]] = [{} for _ in range(self.num_sets)]
        self.stats = StoreStats()
        self._occupied = 0
        self._dirty = 0
        #: Dirty blocks per set, by set index: ``dirty_blocks`` skips the
        #: sets whose count is zero.
        self._set_dirty = [0] * self.num_sets
        #: Blocks :meth:`mark_clean` has turned clean so far.  It is the
        #: only way a resident block becomes clean, so a reader that saw
        #: a set of blocks all dirty can tell from this count alone
        #: whether any of them may have turned clean since.
        self.cleaned = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def set_index(self, lba: int) -> int:
        """Set index for a block address."""
        return lba % self.num_sets

    # ------------------------------------------------------------------
    # Lookup / insert / invalidate
    # ------------------------------------------------------------------
    def lookup(self, lba: int, now: float) -> Optional[CacheBlock]:
        """Return the cached block for ``lba`` or ``None`` (counts stats).

        A hit is reported to the replacement policy.
        """
        entries = self._sets[lba % self.num_sets]
        stats = self.stats
        stats.lookups += 1
        block = entries.get(lba)
        if block is None:
            return None
        stats.hits += 1
        self._on_access(entries, block, now)
        return block

    def peek(self, lba: int) -> Optional[CacheBlock]:
        """Lookup without stats or recency update."""
        return self._sets[lba % self.num_sets].get(lba)

    def first_clean(self, lbas: Iterable[int], limit: int) -> Optional[int]:
        """The first resident, clean LBA among the first ``limit`` of ``lbas``.

        Like :meth:`peek`, it counts no stats and updates no recency.
        Quota recycling scans a tenant's oldest blocks with it for a
        victim that needs no write-back: one call, not a ``peek`` each.
        """
        sets = self._sets
        num_sets = self.num_sets
        for lba in islice(lbas, limit):
            block = sets[lba % num_sets].get(lba)
            if block is not None and not block.dirty:
                return lba
        return None

    def insert(
        self, lba: int, now: float, dirty: bool = False
    ) -> tuple[CacheBlock, Optional[EvictionInfo]]:
        """Insert (or overwrite) ``lba``; evict a victim if the set is full.

        Returns:
            ``(block, eviction)`` where ``eviction`` describes the victim
            (and its dirtiness) or ``None`` when no eviction was needed.
            Re-inserting a resident block refreshes it in place and never
            evicts.
        """
        index = lba % self.num_sets
        entries = self._sets[index]
        existing = entries.get(lba)
        if existing is not None:
            if dirty and not existing.dirty:
                existing.dirty = True
                self._dirty += 1
                self._set_dirty[index] += 1
            self._on_access(entries, existing, now)
            return existing, None

        eviction: Optional[EvictionInfo] = None
        if len(entries) >= self.associativity:
            victim_lba = self._policy.choose_victim(entries)
            victim = entries.pop(victim_lba)
            if victim.dirty:
                self._dirty -= 1
                self._set_dirty[index] -= 1
                self.stats.dirty_evictions += 1
            self._occupied -= 1
            self.stats.evictions += 1
            eviction = EvictionInfo(victim_lba, victim.dirty)

        block = CacheBlock(lba, now, dirty)  # positional: cheaper than a keyword
        entries[lba] = block
        self._occupied += 1
        if dirty:
            self._dirty += 1
            self._set_dirty[index] += 1
        self.stats.insertions += 1
        return block, eviction

    def invalidate(self, lba: int) -> bool:
        """Drop ``lba`` from the cache; returns whether it was resident."""
        index = lba % self.num_sets
        block = self._sets[index].pop(lba, None)
        if block is None:
            return False
        self._occupied -= 1
        if block.dirty:
            self._dirty -= 1
            self._set_dirty[index] -= 1
        self.stats.invalidations += 1
        return True

    # ------------------------------------------------------------------
    # Dirty management
    # ------------------------------------------------------------------
    def mark_dirty(self, lba: int) -> None:
        """Mark a resident block dirty (no-op if absent)."""
        block = self.peek(lba)
        if block is not None and not block.dirty:
            block.dirty = True
            self._dirty += 1
            self._set_dirty[lba % self.num_sets] += 1

    def mark_clean(self, lba: int) -> None:
        """Mark a resident block clean (after a flush); counts in :attr:`cleaned`."""
        block = self.peek(lba)
        if block is not None and block.dirty:
            block.dirty = False
            self._dirty -= 1
            self._set_dirty[lba % self.num_sets] -= 1
            self.cleaned += 1

    def dirty_blocks(self, limit: Optional[int] = None) -> list[int]:
        """LBAs of dirty blocks, up to ``limit`` (a ``limit`` of 0 gives one).

        The order is by set index, then by each set's entry order (the
        replacement policy's: least recently used first under LRU).  So
        a partial listing always comes from the lowest-numbered sets that
        hold a dirty block, not from the oldest dirty blocks.  Sets with
        no dirty block are skipped without a look at their entries.
        """
        out: list[int] = []
        for entries in compress(self._sets, self._set_dirty):
            for lba, block in entries.items():
                if block.dirty:
                    out.append(lba)
                    if limit is not None and len(out) >= limit:
                        return out
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        """Number of resident blocks."""
        return self._occupied

    @property
    def dirty_count(self) -> int:
        """Number of dirty resident blocks."""
        return self._dirty

    @property
    def occupancy(self) -> float:
        """Resident fraction of capacity."""
        return self._occupied / self.capacity_blocks

    @property
    def dirty_ratio(self) -> float:
        """Dirty fraction of capacity."""
        return self._dirty / self.capacity_blocks

    def __contains__(self, lba: int) -> bool:
        return self.peek(lba) is not None

    def __iter__(self) -> Iterator[CacheBlock]:
        for entries in self._sets:
            yield from entries.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStore({self._occupied}/{self.capacity_blocks} blocks, "
            f"{self._dirty} dirty, {self.replacement_name})"
        )
