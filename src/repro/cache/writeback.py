"""Background dirty-block flusher.

EnhanceIO (like every write-back cache) destages dirty blocks in the
background so the dirty ratio stays bounded.  The flusher wakes
periodically and, when the dirty ratio exceeds a low watermark, flushes a
batch of dirty blocks — each flush producing the SSD evict-read (``E``)
plus HDD write-back (``E``) pair that populates the ``E`` share of the
queue mixes in Section IV-C.  Above a high watermark the batch size grows
aggressively (the cleaner is "panicking"), which is the behaviour that
makes write-intensive bursts (Group 3) show a large W+E queue mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache.controller import CacheController
from repro.sim.engine import Simulator

__all__ = ["WritebackConfig", "WritebackFlusher"]


@dataclass
class WritebackConfig:
    """Flusher tuning.

    Attributes:
        interval_us: Wake-up period.
        low_watermark: Dirty ratio below which the flusher stays idle.
        high_watermark: Dirty ratio above which it flushes aggressively.
        batch: Blocks flushed per wake-up between the watermarks.
        panic_batch: Blocks flushed per wake-up above the high watermark.
    """

    interval_us: float = 20_000.0
    low_watermark: float = 0.05
    high_watermark: float = 0.30
    batch: int = 2
    panic_batch: int = 8

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        for name in ("interval_us", "low_watermark", "high_watermark"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if not (0.0 <= self.low_watermark <= self.high_watermark <= 1.0):
            raise ValueError("watermarks must satisfy 0 <= low <= high <= 1")
        if self.batch < 0 or self.panic_batch < 0:
            raise ValueError("batch sizes must be non-negative")


class WritebackFlusher:
    """Periodic background destaging of dirty cache blocks.

    Each tick takes the first ``batch`` blocks of
    :meth:`~repro.cache.store.CacheStore.dirty_blocks`, which lists them
    in set order, so the flusher always works on the lowest-numbered
    sets that hold a dirty block.  A block stays dirty until its
    write-back completes, so a tick whose first ``batch`` dirty blocks
    are all still in flight flushes nothing.  The committed golden
    fingerprints pin this behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: CacheController,
        config: WritebackConfig | None = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.config = config or WritebackConfig()
        self.config.validate()
        self.flushes_started = 0
        self._started = False

    def start(self) -> None:
        """Begin the periodic flush loop (idempotent)."""
        if not self._started:
            self._started = True
            self.sim.schedule(self.config.interval_us, self._tick)

    def _tick(self) -> None:
        cfg = self.config
        store = self.controller.store
        ratio = store.dirty_ratio
        if ratio > cfg.low_watermark:
            batch = cfg.panic_batch if ratio >= cfg.high_watermark else cfg.batch
            for lba in store.dirty_blocks(limit=batch):
                if self.controller.flush_block(lba):
                    self.flushes_started += 1
        self.sim.schedule(cfg.interval_us, self._tick)
