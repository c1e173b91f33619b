"""Selective I/O Bypass (SIB) — the state-of-the-art baseline.

SIB [Kim, Roh, Park — "Selective I/O Bypass and Load Balancing Method for
Write-Through SSD Caching in Big Data Analytics", IEEE TC 67(4), 2018]
balances load between a write-through SSD cache and the disk by
estimating the wait time of every in-queue request and bypassing the
costliest ones to the disk.  The paper reproduces it with the three
properties it criticizes:

1. **Fixed WT + WO cache mode** — writes are buffered in the cache *and*
   mirrored to the disk simultaneously; reads are never promoted (only
   read-after-write data can hit).  In write-heavy bursts both queues
   fill together, leaving no room to balance.
2. **Per-request selection overhead** — each balancing round scans the
   pending queue to estimate wait times; rather than run the scan we
   charge ``scan_overhead_us_per_op × pending`` and stall SSD dispatch
   for that long, reproducing the "performance and computational
   overhead on the operation of the queue".
3. **Latency-estimate-based bypass** — in a FIFO queue the estimated wait
   grows with position, so the highest-latency requests are the tail;
   the number moved per round is what Eq. 1 says is needed to equalize
   the two queue times.  The Eq. 1 gate and the tail bypass are LBICA's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.write_policy import WritePolicy
from repro.core.bottleneck import cache_is_bottleneck
from repro.schemes.base import Scheme
from repro.schemes.configs import SibConfig
from repro.schemes.registry import register_scheme
from repro.sim.summation import left_sum

__all__ = ["SibConfig", "SibController", "SibRound"]


@dataclass(frozen=True)
class SibRound:
    """One balancing round (for logs and tests)."""

    time: float
    cache_qtime: float
    disk_qtime: float
    pending: int
    overhead_us: float
    bypassed: int


class SibController(Scheme):
    """Runs SIB's estimate-and-bypass loop on a simulated system.

    The cache controller must be configured in SIB's WT+WO hybrid mode
    (``policy=WT, promote_on_miss=False``); :meth:`start` does this.
    """

    name = "sib"
    description = (
        "Selective I/O Bypass (Kim et al., IEEE TC 2018): write-through "
        "cache with wait-time-estimated tail bypass."
    )
    config_cls = SibConfig
    config_field = "sib"
    paper_baseline = True
    registry_order = 1
    # SIB balances finer than a monitoring interval.
    ticks_per_interval = 4

    def summary_stats(self) -> dict:
        return {
            "rounds": len(self.decisions),
            "bypassed": self.total_bypassed,
            "overhead_us": self.total_overhead_us,
        }

    def start(self) -> None:
        """Pin SIB's write-through cache mode, then start the loop (idempotent)."""
        if self._started:
            return
        self.controller.set_policy(
            WritePolicy.WT, promote_on_miss=self.config.promote_on_miss
        )
        super().start()

    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        cfg = self.config
        ssd = self.ssd
        cache_qtime = ssd.queue_time()
        disk_qtime = self.hdd.queue_time()
        if not cache_is_bottleneck(
            cache_qtime, disk_qtime, cfg.margin, cfg.min_cache_qtime_us
        ):
            return
        # Charge SIB's wait-time estimation pass, which visits every
        # pending op.
        pending = len(ssd.queue.pending)
        overhead = cfg.scan_overhead_us_per_op * pending
        if overhead > 0:
            ssd.pause_dispatch(overhead)
        # Move enough tail requests to (approximately) equalize Eq. 1.
        per_move_gain = ssd.avg_latency + self.hdd.avg_latency
        want = int((cache_qtime - disk_qtime) / max(per_move_gain, 1e-9))
        bypassed = self.controller.bypass_tail(min(want, cfg.max_bypass_per_round))
        self.decisions.append(
            SibRound(
                time=now,
                cache_qtime=cache_qtime,
                disk_qtime=disk_qtime,
                pending=pending,
                overhead_us=overhead,
                bypassed=bypassed,
            )
        )

    @property
    def total_bypassed(self) -> int:
        """Requests moved to the disk over the run."""
        return sum(r.bypassed for r in self.decisions)

    @property
    def total_overhead_us(self) -> float:
        """Dispatch stall charged for the estimation passes over the run."""
        return float(left_sum(r.overhead_us for r in self.decisions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SibController(rounds={len(self.decisions)}, "
            f"bypassed={self.total_bypassed}, overhead={self.total_overhead_us:.0f}µs)"
        )


register_scheme(SibController)
