"""Per-block cache metadata."""

from __future__ import annotations

__all__ = ["CacheBlock"]


class CacheBlock:
    """Metadata for one cached 4-KiB block.

    Attributes:
        lba: The disk block this entry caches.
        dirty: Whether the cached copy is newer than the disk copy
            (write-back data awaiting a flush).
        last_access: Insertion time; LFU moves it to each hit (its
            tie-break).
        access_count: Hits since insertion, counted by LFU.
        ref: CLOCK reference bit, set at insertion and by CLOCK on a hit.

    The replacement policy (:mod:`repro.cache.replacement`) keeps the
    recency fields and updates only what it reads.  One block is built
    per insertion, so the constructor allocates nothing beyond the
    object itself.
    """

    __slots__ = ("lba", "dirty", "last_access", "access_count", "ref")

    def __init__(self, lba: int, now: float, dirty: bool = False) -> None:
        self.lba = lba
        self.dirty = dirty
        self.last_access = now
        self.access_count = 0
        self.ref = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "D" if self.dirty else "C"
        return f"CacheBlock(lba={self.lba}, {flag}, hits={self.access_count})"
