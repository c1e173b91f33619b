"""SSD service-time model.

The model captures the three SSD behaviours the paper's mechanism depends
on:

1. **Fast reads** — flash reads are flat and quick (~100 µs class for the
   SATA drives in the testbed).
2. **Slower writes** — program operations cost several times a read.
3. **The write cliff** — under *sustained* write pressure the FTL runs out
   of pre-erased blocks and garbage collection pushes write latency up by
   an order of magnitude.  This is why a burst of promotions (``P``) or
   application writes (``W``) piles up in the SSD queue in Figures 4/6,
   and why shedding exactly that traffic (LBICA's WO/RO policies) deflates
   the cache queue so effectively.

The cliff is modelled with a moving write-intensity estimate: each write
adds its block count to a leaky bucket; the bucket level (relative to a
configurable knee) interpolates the write cost between ``write_us`` and
``cliff_write_us``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.io.request import DeviceOp

__all__ = ["SsdConfig", "SsdModel"]


@dataclass(slots=True)
class SsdConfig:
    """Parameters of the SSD service model (all times in µs)."""

    read_us: float = 90.0  #: 4-KiB random read
    write_us: float = 250.0  #: 4-KiB write, FTL under light load
    cliff_write_us: float = 4000.0  #: 4-KiB write during garbage collection
    per_block_us: float = 8.0  #: additional transfer cost per extra block
    #: Leaky-bucket decay time constant (µs): how fast the FTL recovers.
    gc_decay_us: float = 300_000.0
    #: Write intensity (blocks in the bucket) at which GC fully kicks in.
    gc_knee_blocks: float = 30.0
    jitter_sigma: float = 0.08  #: lognormal service-time jitter (0 disables)

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        for name in (
            "read_us",
            "write_us",
            "cliff_write_us",
            "per_block_us",
            "gc_decay_us",
            "gc_knee_blocks",
            "jitter_sigma",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if min(self.read_us, self.write_us, self.per_block_us) < 0:
            raise ValueError("latencies must be non-negative")
        if self.cliff_write_us < self.write_us:
            raise ValueError("cliff_write_us must be >= write_us")
        if self.gc_decay_us <= 0 or self.gc_knee_blocks <= 0:
            raise ValueError("GC parameters must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative (0 disables)")


class SsdModel:
    """Service-time model of a SATA-class SSD with a write cliff.

    Args:
        config: Model parameters.
        rng: Optional numpy generator for jitter; deterministic when
            omitted (no jitter).
    """

    def __init__(self, config: SsdConfig | None = None, rng=None) -> None:
        self.config = config or SsdConfig()
        self.config.validate()
        self.rng = rng
        self._bucket = 0.0  # write-intensity leaky bucket (blocks)
        self._bucket_time = 0.0
        # Jitter multipliers are drawn in blocks: one ``lognormal(size=n)``
        # call produces bit-identical values to n scalar calls, and the
        # ``ssd.jitter`` registry stream is exclusively ours, so buffering
        # ahead of simulated time cannot perturb any other stream.
        self._jitter_buf: list[float] = []
        self._jitter_pos = 0

    # -- ServiceModel protocol ------------------------------------------
    @property
    def nominal_read_us(self) -> float:
        """Nominal read latency before any measurement."""
        return self.config.read_us

    @property
    def nominal_write_us(self) -> float:
        """Nominal write latency before any measurement."""
        return self.config.write_us

    def service_time(self, op: DeviceOp, now: float) -> float:
        """Price one operation and update write-pressure state."""
        # Once per dispatched op.  First the leaky bucket decays to
        # ``now``.  An idle bucket stays exactly 0.0 under decay, so the
        # exp is skipped and read-heavy phases stay off the
        # transcendental path.  (np.exp, not math.exp: the two differ in
        # the last ulp for some inputs, and run reproducibility pins the
        # np stream.)
        cfg = self.config
        nblocks = op.nblocks
        bucket = self._bucket
        dt = now - self._bucket_time
        if dt > 0:
            if bucket != 0.0:
                bucket = self._bucket = bucket * float(np.exp(-dt / cfg.gc_decay_us))
            self._bucket_time = now
        if op.is_write:
            # The cliff: the bucket level, relative to the knee, sets
            # the write cost between write_us and cliff_write_us.
            level = min(bucket / cfg.gc_knee_blocks, 1.0)
            total = cfg.write_us + level * (cfg.cliff_write_us - cfg.write_us)
            self._bucket = bucket + nblocks
        else:
            total = cfg.read_us
        if nblocks > 1:
            total += cfg.per_block_us * (nblocks - 1)
        rng = self.rng
        if rng is not None and cfg.jitter_sigma > 0:
            pos = self._jitter_pos
            buf = self._jitter_buf
            if pos == len(buf):
                buf = self._jitter_buf = rng.lognormal(
                    0.0, cfg.jitter_sigma, 256
                ).tolist()
                pos = 0
            self._jitter_pos = pos + 1
            total *= buf[pos]
        return total
