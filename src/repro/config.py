"""System-level configuration: one dataclass wiring every subsystem.

:class:`SystemConfig` gathers the knobs of the devices, cache, monitor,
writeback flusher, LBICA, and SIB into a single object that
:mod:`repro.experiments.system` can turn into a runnable stack.  Two
presets are provided:

- :func:`paper_config` — the full-scale setup the experiment harness uses
  to regenerate every figure (200-interval runs).
- :func:`quick_config` — a scaled-down variant (shorter intervals, lower
  rates) for unit tests and CI benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cache.replacement import make_replacement_policy
from repro.cache.writeback import WritebackConfig
from repro.devices.hdd import HddConfig
from repro.devices.presets import HDD_PRESET, SSD_PRESET
from repro.devices.ssd import SsdConfig
from repro.obs.config import ObsConfig
from repro.schemes.configs import (
    DynShareConfig,
    LbicaConfig,
    PartitionConfig,
    SibConfig,
    SloStealConfig,
)

__all__ = ["SystemConfig", "paper_config", "quick_config"]


@dataclass
class SystemConfig:
    """Everything needed to build one simulated storage system.

    Attributes:
        seed: Root seed for all random streams.
        interval_us: Monitoring interval (the paper's 10-minute window,
            scaled to simulation time).  It also paces every scheme's
            control loop: LBICA and the capacity schemes evaluate once
            per interval, SIB four times.
        cache_blocks: SSD cache capacity in 4-KiB blocks.
        cache_associativity: Ways per cache set.
        replacement: Replacement policy name (``lru``/``fifo``/``clock``/``lfu``).
        ssd / hdd: Device model parameters.
        ssd_depth / hdd_depth: Device dispatch concurrency.
        hdd_disks: Spindles in the disk subsystem.  ``1`` models the
            paper's single SAS drive; larger values build a striped
            array (see :mod:`repro.devices.array`) whose dispatch depth
            is ``hdd_depth × hdd_disks`` — the knob for the disk-side
            headroom ablation.
        max_merge_blocks: Block-layer merge bound (0 disables merging).
        writeback: Background flusher tuning.
        lbica: LBICA controller tuning.
        sib: SIB baseline tuning.
        partition: Static per-VM cache-partitioning tuning (the
            ``partition`` scheme).
        dynshare: Dynamic share-allocator tuning (the ``dynshare``
            scheme).
        slosteal: SLO-stealing allocator tuning (the ``slosteal``
            scheme).
        rate_scale: Multiplier applied to workload arrival rates.
        max_outstanding: Application concurrency bound (backpressure).
        drain_intervals: Extra intervals simulated after the workload
            script ends so in-flight requests complete.
        obs: Run-telemetry switches (metrics series, lifecycle tracing,
            heartbeat).  Off by default — a default config wires zero
            telemetry and runs bit-identical to an obs-free build.
    """

    seed: int = 7
    interval_us: float = 50_000.0
    cache_blocks: int = 4096
    cache_associativity: int = 8
    replacement: str = "lru"
    ssd: SsdConfig = field(default_factory=lambda: replace(SSD_PRESET))
    hdd: HddConfig = field(default_factory=lambda: replace(HDD_PRESET))
    ssd_depth: int = 1
    hdd_depth: int = 2
    hdd_disks: int = 1
    max_merge_blocks: int = 32
    writeback: WritebackConfig = field(default_factory=WritebackConfig)
    lbica: LbicaConfig = field(default_factory=LbicaConfig)
    sib: SibConfig = field(default_factory=SibConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    dynshare: DynShareConfig = field(default_factory=DynShareConfig)
    slosteal: SloStealConfig = field(default_factory=SloStealConfig)
    rate_scale: float = 1.0
    max_outstanding: int = 256
    drain_intervals: int = 0
    obs: ObsConfig = field(default_factory=ObsConfig)

    def validate(self) -> None:
        """Raise ``ValueError``, naming the field, on inconsistent parameters.

        Everything the build would reject is checked here, so a bad
        value fails before anything is built or run.
        """
        for name in ("interval_us", "rate_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if self.cache_blocks <= 0:
            raise ValueError("cache_blocks must be positive")
        if self.cache_associativity < 1:
            raise ValueError("cache_associativity must be >= 1")
        if self.cache_blocks % self.cache_associativity:
            raise ValueError(
                f"cache_associativity ({self.cache_associativity}) must divide "
                f"cache_blocks ({self.cache_blocks})"
            )
        try:
            make_replacement_policy(self.replacement)
        except ValueError as exc:
            raise ValueError(f"replacement: {exc}") from None
        for name in ("ssd_depth", "hdd_depth", "max_outstanding"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_merge_blocks < 0:
            raise ValueError("max_merge_blocks must be non-negative")
        if self.rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if self.drain_intervals < 0:
            raise ValueError("drain_intervals must be non-negative")
        if self.hdd_disks < 1:
            raise ValueError("hdd_disks must be >= 1")
        self.ssd.validate()
        self.hdd.validate()
        self.writeback.validate()
        self.lbica.validate()
        self.sib.validate()
        self.partition.validate()
        self.dynshare.validate()
        self.slosteal.validate()
        self.obs.validate()

    def scaled(self, rate_scale: float) -> "SystemConfig":
        """A copy with arrival rates scaled (devices unchanged)."""
        return replace(self, rate_scale=rate_scale)


def paper_config(seed: int = 7) -> SystemConfig:
    """Full-scale configuration used to regenerate the paper's figures."""
    return SystemConfig(seed=seed)


def quick_config(seed: int = 7) -> SystemConfig:
    """Scaled-down configuration for tests and CI benchmarks.

    Uses shorter monitoring intervals so full timelines stay cheap while
    keeping the same arrival rates (the device models and therefore the
    saturation behaviour are unchanged).
    """
    return SystemConfig(seed=seed, interval_us=15_000.0)
