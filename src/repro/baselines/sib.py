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
   pending queue to estimate wait times; we charge
   ``scan_overhead_us_per_op × pending`` and stall SSD dispatch for that
   long, reproducing the "performance and computational overhead on the
   operation of the queue".
3. **Latency-estimate-based bypass** — in a FIFO queue the estimated wait
   grows with position, so the highest-latency requests are the tail;
   the number moved per round is what Eq. 1 says is needed to equalize
   the two queue times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.controller import CacheController
from repro.cache.write_policy import WritePolicy
from repro.devices.base import StorageDevice
from repro.schemes.base import Scheme
from repro.schemes.configs import SibConfig
from repro.schemes.registry import register_scheme

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
    (``policy=WT, promote_on_miss=False``); :meth:`configure_cache` does
    this.
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

    def __init__(
        self,
        sim,
        controller: CacheController,
        ssd: StorageDevice,
        hdd: StorageDevice,
        config: SibConfig | None = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.ssd = ssd
        self.hdd = hdd
        self.config = config or SibConfig()
        self.config.validate()
        self.rounds: list[SibRound] = []
        self.total_overhead_us = 0.0
        self._started = False

    @classmethod
    def from_system(cls, system) -> "SibController":
        return cls(
            system.sim, system.controller, system.ssd, system.hdd, system.config.sib
        ).attach(system)

    def decision_log(self) -> list:
        """The balancing rounds (one :class:`SibRound` per action)."""
        return self.rounds

    def summary_stats(self) -> dict:
        return {
            "rounds": len(self.rounds),
            "bypassed": self.total_bypassed,
            "overhead_us": self.total_overhead_us,
        }

    def configure_cache(self) -> None:
        """Pin the cache to SIB's fixed write-through mode."""
        self.controller.set_policy(
            WritePolicy.WT, promote_on_miss=self.config.promote_on_miss
        )

    def start(self) -> None:
        """Begin the balancing loop (idempotent); pins the cache mode."""
        if self._started:
            return
        self._started = True
        self.configure_cache()
        self.sim.schedule(self.config.check_interval_us, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        cfg = self.config
        cache_qtime = self.ssd.queue_time()
        disk_qtime = self.hdd.queue_time()
        if (
            cache_qtime >= cfg.min_cache_qtime_us
            and cache_qtime > disk_qtime * cfg.margin
        ):
            pending = len(self.ssd.queue.pending)
            # Wait-time estimation pass over the whole pending queue.
            estimates = self.ssd.queue.estimated_wait(self.ssd.avg_latency)
            overhead = cfg.scan_overhead_us_per_op * len(estimates)
            if overhead > 0:
                self.ssd.pause_dispatch(overhead)
                self.total_overhead_us += overhead
            # Move enough tail requests to (approximately) equalize Eq. 1.
            per_move_gain = self.ssd.avg_latency + self.hdd.avg_latency
            want = int((cache_qtime - disk_qtime) / max(per_move_gain, 1e-9))
            to_move = max(0, min(want, cfg.max_bypass_per_round))
            stolen = self.ssd.queue.steal_tail(
                to_move, now, predicate=self.controller.op_redirectable
            )
            for op in stolen:
                self.controller.redirect_to_disk(op)
            self.rounds.append(
                SibRound(
                    time=now,
                    cache_qtime=cache_qtime,
                    disk_qtime=disk_qtime,
                    pending=pending,
                    overhead_us=overhead,
                    bypassed=len(stolen),
                )
            )
        self.sim.schedule(cfg.check_interval_us, self._tick)

    @property
    def total_bypassed(self) -> int:
        """Requests moved to the disk over the run."""
        return sum(r.bypassed for r in self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SibController(rounds={len(self.rounds)}, "
            f"bypassed={self.total_bypassed}, overhead={self.total_overhead_us:.0f}µs)"
        )


register_scheme(SibController)
