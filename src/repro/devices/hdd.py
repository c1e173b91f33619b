"""HDD ("disk subsystem") service-time model.

Three mechanical behaviours matter for the paper's load-balancing story:

1. **Random reads are expensive** — a full seek plus half a rotation,
   milliseconds per operation.  This is why a cache miss storm cannot be
   dumped wholesale on the disk (the flaw LBICA attributes to naive
   bypassing).
2. **Sequential streaks are cheap** — once the head is positioned,
   successive contiguous blocks cost only transfer time.  This is why
   Group 4 (sequential read) needs no balancing: the disk serves the
   stream natively.
3. **Writes hit the drive's volatile write cache** — enterprise drives
   acknowledge writes once they are in the on-board cache, at near-
   electronic latency, as long as the cache has room; the drive destages
   in the background.  This makes bypassed writes (LBICA's RO policy,
   Group 3 tail bypass, SIB's redirections) genuinely cheaper on the disk
   than waiting in a saturated SSD queue — and it is also why SIB's
   write-through design keeps the disk loaded at all times.

The write cache is modelled as a token pool of ``write_cache_slots``
entries draining at ``destage_us`` per entry; when the pool is exhausted a
write pays the full mechanical cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite

from repro.io.request import DeviceOp

__all__ = ["HddConfig", "HddModel"]


@dataclass(slots=True)
class HddConfig:
    """Parameters of the HDD service model (times in µs)."""

    avg_seek_us: float = 6500.0  #: average seek (7.2K SAS class)
    rotation_us: float = 8333.0  #: full rotation at 7200 RPM
    transfer_us_per_block: float = 20.0  #: 4-KiB transfer at ~200 MB/s
    #: Ack latency of a write absorbed by the drive's volatile cache.
    cached_write_us: float = 400.0
    write_cache_slots: int = 256  #: on-board cache capacity (entries)
    destage_us: float = 1800.0  #: background destage time per entry
    #: Blocks within this distance of the previous access count as a
    #: sequential streak (no seek, no rotational delay).
    seq_window_blocks: int = 64
    jitter_sigma: float = 0.10  #: lognormal jitter on mechanical times

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        latencies = (
            "avg_seek_us",
            "rotation_us",
            "transfer_us_per_block",
            "cached_write_us",
        )
        for name in (*latencies, "destage_us", "jitter_sigma"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if min(getattr(self, name) for name in latencies) < 0:
            raise ValueError("latencies must be non-negative")
        if self.write_cache_slots < 0 or self.destage_us <= 0:
            raise ValueError("write-cache parameters must be positive")
        if self.seq_window_blocks < 0:
            raise ValueError("seq_window_blocks must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative (0 disables)")


class HddModel:
    """Service-time model of a 7.2K-RPM hard drive with write caching.

    Args:
        config: Model parameters.
        rng: Optional numpy generator used for seek-distance variation and
            rotational position; deterministic averages are used when
            omitted.
    """

    def __init__(self, config: HddConfig | None = None, rng=None) -> None:
        self.config = config or HddConfig()
        self.config.validate()
        self.rng = rng
        self._head_lba = 0
        self._cache_used = 0.0
        self._cache_time = 0.0

    # -- write cache ----------------------------------------------------
    @property
    def write_cache_fill(self) -> float:
        """Fraction of the on-board write cache currently occupied."""
        if self.config.write_cache_slots == 0:
            return 1.0
        return min(self._cache_used / self.config.write_cache_slots, 1.0)

    # -- mechanical cost --------------------------------------------------
    def _mechanical_us(self, op: DeviceOp) -> float:
        """Seek, rotation and transfer of ``op``; moves the head past it.

        The random draws are ``uniform(0.4, 1.6)`` and ``uniform(0.0,
        1.0)`` written out as numpy computes them, ``lo + (hi - lo) *
        random()``: the same values and generator state for a fraction
        of a scalar ``uniform`` call's cost.
        """
        cfg = self.config
        lba = op.lba
        nblocks = op.nblocks
        distance = abs(lba - self._head_lba)
        self._head_lba = lba + nblocks
        transfer = cfg.transfer_us_per_block * nblocks
        if distance <= cfg.seq_window_blocks:
            # sequential streak: transfer only
            return transfer
        rng = self.rng
        if rng is not None:
            seek = cfg.avg_seek_us * (0.4 + (1.6 - 0.4) * rng.random())
            rot = cfg.rotation_us * rng.random()
        else:
            seek = cfg.avg_seek_us
            rot = cfg.rotation_us / 2.0
        return seek + rot + transfer

    # -- ServiceModel protocol --------------------------------------------
    @property
    def nominal_read_us(self) -> float:
        """Nominal random-read latency before any measurement."""
        cfg = self.config
        return cfg.avg_seek_us + cfg.rotation_us / 2.0 + cfg.transfer_us_per_block

    @property
    def nominal_write_us(self) -> float:
        """Nominal (cache-absorbed) write latency before any measurement."""
        return self.config.cached_write_us

    def service_time(self, op: DeviceOp, now: float) -> float:
        """Price one operation, updating head position and write cache.

        Runs once per HDD op.  The jitter is ``lognormal(0, sigma)``
        written out as numpy computes it, ``exp(0 + sigma *
        standard_normal())`` (the ``0 +`` changes no value of ``exp``):
        the same value and generator state for less than a scalar
        ``lognormal`` call's cost.
        """
        cfg = self.config
        if op.is_write:
            # Drain the write cache for the time since the last write.
            dt = now - self._cache_time
            if dt > 0:
                used = self._cache_used - dt / cfg.destage_us
                self._cache_used = used if used > 0.0 else 0.0
                self._cache_time = now
            if self._cache_used + 1 <= cfg.write_cache_slots:
                self._cache_used += 1
                total = cfg.cached_write_us + cfg.transfer_us_per_block * (
                    op.nblocks - 1
                )
            else:
                total = self._mechanical_us(op)
        else:
            total = self._mechanical_us(op)
        rng = self.rng
        if rng is not None and cfg.jitter_sigma > 0:
            total *= exp(cfg.jitter_sigma * rng.standard_normal())
        return total
