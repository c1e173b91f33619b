"""The LBICA controller: the periodic detect → characterize → balance loop.

Ties the three procedures of Fig. 2 together on the simulator:

1. once per monitoring interval, read the live Eq. 1 queue times off
   the devices (the iostat substrate);
2. when the cache is the bottleneck, snapshot the SSD queue's R/W/P/E
   mix (the blktrace substrate) and classify it into a workload group;
3. assign the group's write policy, and for Group 3 bypass the SSD
   queue tail past the bottleneck threshold to the disk.

Every evaluation is logged as an :class:`LbicaDecision`; the Fig. 6
experiment renders this log directly (burst markers, detected groups,
policy annotations).  The controller is built like every other scheme,
``LbicaController(config).attach(system)``; attaching takes the
system's :class:`~repro.trace.blktrace.BlkTracer`.  The Eq. 1 test
and the tail bypass are the steps the SIB baseline shares:
:func:`~repro.core.bottleneck.cache_is_bottleneck` and
:meth:`~repro.cache.controller.CacheController.bypass_tail`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.write_policy import WritePolicy
from repro.core.bottleneck import cache_is_bottleneck, tail_past_threshold
from repro.core.characterization import QueueMix, WorkloadCharacterizer, WorkloadGroup
from repro.core.policy_table import PolicyAction, default_policy_table
from repro.io.request import OpTag
from repro.schemes.base import Scheme
from repro.schemes.configs import LbicaConfig
from repro.schemes.registry import register_scheme
from repro.trace.blktrace import BlkTracer

__all__ = ["LbicaConfig", "LbicaDecision", "LbicaController"]


@dataclass(frozen=True)
class LbicaDecision:
    """One control-loop evaluation (one row of the Fig. 6 timeline)."""

    time: float
    interval_index: int
    cache_qtime: float
    disk_qtime: float
    burst: bool
    mix: dict
    group: Optional[WorkloadGroup]
    policy_assigned: Optional[WritePolicy]
    policy_active: WritePolicy
    bypassed: int


class LbicaController(Scheme):
    """Runs LBICA's control loop on a simulated system."""

    name = "lbica"
    description = (
        "LBICA (Ahmadian et al., DATE 2019): bottleneck detection, "
        "workload characterization, and policy assignment per interval."
    )
    config_cls = LbicaConfig
    config_field = "lbica"
    paper_baseline = True
    registry_order = 2
    ticks_per_interval = 1

    def _on_attach(self, system) -> None:
        self.tracer: BlkTracer = system.tracer
        self.characterizer = WorkloadCharacterizer(self.config.characterizer)
        self.policy_table: dict[WorkloadGroup, PolicyAction] = default_policy_table()
        self._quiet_streak = 0
        self._tick_count = 0
        self._group_streak: tuple[Optional[WorkloadGroup], int] = (None, 0)
        self._prev_ssd_qsize = 0

    def summary_stats(self) -> dict:
        return {
            "decisions": len(self.decisions),
            "bursts": len(self.burst_intervals),
            "policy_assignments": len(self.policy_timeline),
        }

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        # One evaluation per monitoring interval; the config and device
        # handles are loop-invariant across the whole run, so they are
        # bound once per tick here rather than re-chained at every use.
        sim = self.sim
        config = self.config
        ssd = self.ssd
        now = sim.now
        index = self._tick_count
        self._tick_count += 1

        cache_qtime = ssd.queue_time()
        disk_qtime = self.hdd.queue_time()
        burst = cache_is_bottleneck(
            cache_qtime, disk_qtime, config.margin, config.min_cache_qtime_us
        )

        group: Optional[WorkloadGroup] = None
        assigned: Optional[WritePolicy] = None
        bypassed = 0
        mix_dict: dict = {}

        # Take the per-interval arrival windows every tick — even when
        # the window mix is not consulted — so each window covers one
        # interval: with ``use_window_mix=False`` an untaken window would
        # span every interval since the last take, and a later
        # ``take_window_counts`` call would return a stale multi-interval
        # mix.  When consulted, application reads and writes are counted
        # wherever they were served (a write bypassed to the disk under
        # RO is still workload write traffic); the cache-internal
        # promote/evict tags exist only on the SSD side.
        ssd_window = self.tracer.take_window_counts(ssd.name)
        hdd_window = self.tracer.take_window_counts(self.hdd.name)
        window = None
        if config.use_window_mix:
            window = ssd_window
            window[OpTag.READ] += hdd_window.get(OpTag.READ, 0)
            window[OpTag.WRITE] += hdd_window.get(OpTag.WRITE, 0)

        if burst:
            self._quiet_streak = 0
            counts = window
            if not counts:
                counts = self.tracer.queue_snapshot(self.ssd.name)
            mix = QueueMix.from_counts(counts)
            mix_dict = mix.as_dict()
            group = self.characterizer.classify(mix)
            action = self.policy_table[group]
            # "Rising" is judged on queue *length*: queue time also moves
            # with the service-latency EWMA, which keeps climbing while a
            # drained queue's slow writes retire.
            rising = (
                not config.require_rising
                or ssd.qsize > self._prev_ssd_qsize
            )
            prev_group, streak = self._group_streak
            if rising and group is not WorkloadGroup.UNKNOWN:
                # Confirmation only accumulates while the bottleneck is
                # still growing; drain-phase readings are ignored.
                streak = streak + 1 if group == prev_group else 1
                self._group_streak = (group, streak)
            if (
                action.policy is not None
                and rising
                and streak >= config.confirm_ticks
            ):
                if self.controller.set_policy(action.policy):
                    assigned = action.policy
            if action.tail_bypass:
                past = tail_past_threshold(
                    len(ssd.queue.pending), self.hdd.queue_time(), ssd.avg_latency
                )
                bypassed = self.controller.bypass_tail(
                    min(past, config.max_bypass_per_round)
                )
        else:
            self._quiet_streak += 1
            revert = config.revert_after_quiet
            if (
                revert is not None
                and self._quiet_streak >= revert
                and self.controller.policy is not WritePolicy.WB
            ):
                self.controller.set_policy(WritePolicy.WB)
                assigned = WritePolicy.WB

        self._prev_ssd_qsize = ssd.qsize
        self.decisions.append(
            LbicaDecision(
                time=now,
                interval_index=index,
                cache_qtime=cache_qtime,
                disk_qtime=disk_qtime,
                burst=burst,
                mix=mix_dict,
                group=group,
                policy_assigned=assigned,
                policy_active=self.controller.policy,
                bypassed=bypassed,
            )
        )
        sim.schedule(self.tick_interval_us, self._tick)

    # ------------------------------------------------------------------
    @property
    def burst_intervals(self) -> list[int]:
        """Interval indices where a burst was detected."""
        return [d.interval_index for d in self.decisions if d.burst]

    @property
    def policy_timeline(self) -> list[tuple[int, WritePolicy]]:
        """(interval, policy) pairs at each assignment (Fig. 6 annotations)."""
        return [
            (d.interval_index, d.policy_assigned)
            for d in self.decisions
            if d.policy_assigned is not None
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LbicaController(decisions={len(self.decisions)}, "
            f"bursts={len(self.burst_intervals)})"
        )


register_scheme(LbicaController)
