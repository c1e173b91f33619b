"""EnhanceIO-like block-level I/O cache.

The paper implements its cache tier with EnhanceIO, a kernel lookaside
cache: a set-associative map of 4-KiB disk blocks onto the SSD, with a
write policy that decides which traffic is absorbed by the SSD and which
falls through to the disk.  This package rebuilds that substrate:

- :mod:`repro.cache.block` — per-block metadata (valid/dirty bits,
  recency/frequency state).
- :mod:`repro.cache.replacement` — pluggable LRU / FIFO / CLOCK / LFU
  victim selection; the policy owns the blocks' recency state.
- :mod:`repro.cache.store` — the set-associative :class:`~repro.cache.store.CacheStore`.
- :mod:`repro.cache.write_policy` — the WB / WT / RO / WO policies of
  Section III-C plus their routing semantics.
- :mod:`repro.cache.controller` — the datapath: expands application
  requests into tagged SSD/HDD device operations (R/W/P/E), honouring the
  currently assigned write policy; supports live policy switching, which
  is LBICA's actuation mechanism.
- :mod:`repro.cache.writeback` — background dirty-block flusher.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cache.block import CacheBlock
    from repro.cache.controller import CacheController, CacheStats
    from repro.cache.replacement import (
        ClockPolicy,
        FifoPolicy,
        LfuPolicy,
        LruPolicy,
        make_replacement_policy,
    )
    from repro.cache.store import CacheStore
    from repro.cache.write_policy import PolicyBehavior, WritePolicy
    from repro.cache.writeback import WritebackFlusher

__all__ = [
    "CacheBlock",
    "CacheStore",
    "CacheController",
    "CacheStats",
    "WritePolicy",
    "PolicyBehavior",
    "WritebackFlusher",
    "LruPolicy",
    "FifoPolicy",
    "ClockPolicy",
    "LfuPolicy",
    "make_replacement_policy",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cache.block": ("CacheBlock",),
        "repro.cache.controller": ("CacheController", "CacheStats"),
        "repro.cache.replacement": (
            "ClockPolicy",
            "FifoPolicy",
            "LfuPolicy",
            "LruPolicy",
            "make_replacement_policy",
        ),
        "repro.cache.store": ("CacheStore",),
        "repro.cache.write_policy": ("PolicyBehavior", "WritePolicy"),
        "repro.cache.writeback": ("WritebackFlusher",),
    },
)
