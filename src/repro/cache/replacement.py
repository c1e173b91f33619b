"""Pluggable replacement policies.

A policy owns the recency state of the store's sets.  Each set is a
plain insertion-ordered ``dict`` (``lba -> CacheBlock``); on a hit or a
refreshing re-insert the store calls :meth:`ReplacementPolicy.on_access`,
and on overflow :meth:`ReplacementPolicy.choose_victim`.  Each policy
writes only the state it reads: LRU reorders the set, CLOCK sets the
block's reference bit, LFU counts the hit and stamps its time, and FIFO
does nothing.  The policies hold no state of their own, so one instance
serves every set of a store.

Available policies: LRU (EnhanceIO's default), FIFO, CLOCK (second
chance), and LFU with LRU tie-breaking.  The ablation benchmark sweeps
these to show LBICA's behaviour is replacement-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.block import CacheBlock

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "ClockPolicy",
    "LfuPolicy",
    "make_replacement_policy",
]


class ReplacementPolicy(ABC):
    """Victim-selection strategy, applied to one cache set at a time."""

    name: str = "base"

    def on_access(
        self, entries: dict[int, CacheBlock], block: CacheBlock, now: float
    ) -> None:
        """Hook invoked on a hit to ``block`` (or a re-insert) at ``now``."""

    @abstractmethod
    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        """Return the LBA of the block to evict (``entries`` non-empty)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: move-to-back on access, evict the front."""

    name = "lru"

    def on_access(
        self, entries: dict[int, CacheBlock], block: CacheBlock, now: float
    ) -> None:
        # Re-insert to move the key to the back of the ordered dict.
        lba = block.lba
        del entries[lba]
        entries[lba] = block

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return next(iter(entries))


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: evict the oldest insertion, ignore accesses."""

    name = "fifo"

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return next(iter(entries))


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: sweep, clearing ref bits, evict first clear."""

    name = "clock"

    def on_access(
        self, entries: dict[int, CacheBlock], block: CacheBlock, now: float
    ) -> None:
        block.ref = True

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        # Two sweeps guarantee a victim: the first clears every ref bit
        # in the worst case, the second then finds ref == False.
        for _ in range(2):
            for lba, block in entries.items():
                if not block.ref:
                    return lba
                block.ref = False
        return next(iter(entries))  # pragma: no cover - unreachable


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used, breaking ties by last access time."""

    name = "lfu"

    def on_access(
        self, entries: dict[int, CacheBlock], block: CacheBlock, now: float
    ) -> None:
        block.access_count += 1
        block.last_access = now

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return min(
            entries.values(), key=lambda b: (b.access_count, b.last_access)
        ).lba


_POLICIES: dict[str, type[ReplacementPolicy]] = {
    cls.name: cls for cls in (LruPolicy, FifoPolicy, ClockPolicy, LfuPolicy)
}


def make_replacement_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``clock``/``lfu``).

    Raises:
        ValueError: For unknown names.
    """
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
