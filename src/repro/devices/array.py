"""A striped multi-disk "disk subsystem" model.

The paper calls its backing store the *disk subsystem*; enterprise
deployments put an array behind the cache rather than a single spindle.
:class:`StripedArrayModel` composes N independent :class:`HddModel`
spindles RAID-0 style: each operation is routed to the spindle owning its
stripe, and because a :class:`~repro.devices.base.StorageDevice` with
``depth == n_disks`` dispatches that many operations concurrently, the
array's aggregate random-I/O throughput scales with the spindle count
while per-op latency stays a single disk's.

This is the knob for studying how much disk-side headroom LBICA's bypass
policies need (see :func:`repro.experiments.ablation.run_disk_headroom_sweep`
and the array tests).
"""

from __future__ import annotations

from dataclasses import replace

from repro.devices.hdd import HddConfig, HddModel
from repro.io.request import DeviceOp

__all__ = ["StripedArrayModel"]


class StripedArrayModel:
    """RAID-0-like striping across N independent HDD spindles.

    Args:
        n_disks: Number of spindles (≥ 1).
        stripe_blocks: Stripe unit in 4-KiB blocks; an op is routed by
            the stripe that contains its first block (ops spanning a
            stripe boundary are charged to the first spindle — the
            simplification errs toward *under*-reporting array
            parallelism).
        config: Per-spindle HDD parameters (shared; each spindle gets an
            independent copy so head positions and write caches are per
            spindle).
        rng: Optional generator for mechanical jitter (shared stream).
    """

    def __init__(
        self,
        n_disks: int = 4,
        stripe_blocks: int = 64,
        config: HddConfig | None = None,
        rng=None,
    ) -> None:
        if n_disks < 1:
            raise ValueError("n_disks must be >= 1")
        if stripe_blocks < 1:
            raise ValueError("stripe_blocks must be >= 1")
        self.n_disks = n_disks
        self.stripe_blocks = stripe_blocks
        base = config or HddConfig()
        base.validate()
        self.spindles = [
            HddModel(replace(base), rng=rng) for _ in range(n_disks)
        ]

    def spindle_for(self, lba: int) -> int:
        """Index of the spindle owning the stripe containing ``lba``."""
        return (lba // self.stripe_blocks) % self.n_disks

    # -- ServiceModel protocol --------------------------------------------
    @property
    def nominal_read_us(self) -> float:
        """A single spindle's nominal random-read latency."""
        return self.spindles[0].nominal_read_us

    @property
    def nominal_write_us(self) -> float:
        """A single spindle's nominal (cache-absorbed) write latency."""
        return self.spindles[0].nominal_write_us

    def service_time(self, op: DeviceOp, now: float) -> float:
        """Route the op to its owning spindle and price it there."""
        return self.spindles[self.spindle_for(op.lba)].service_time(op, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StripedArrayModel(n_disks={self.n_disks}, stripe={self.stripe_blocks})"
