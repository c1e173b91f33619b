"""The LBICA controller: the periodic detect → characterize → balance loop.

Ties the three procedures of Fig. 2 together on the simulator:

1. every ``decision_interval_us``, read the live Eq. 1 queue times off
   the devices (the iostat substrate);
2. when the cache is the bottleneck, snapshot the SSD queue's R/W/P/E
   mix (the blktrace substrate) and classify it into a workload group;
3. assign the group's write policy, and for Group 3 run the tail-bypass
   balancer.

Every evaluation is logged as an :class:`LbicaDecision`; the Fig. 6
experiment renders this log directly (burst markers, detected groups,
policy annotations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.controller import CacheController
from repro.cache.write_policy import WritePolicy
from repro.core.balancer import TailBypassBalancer
from repro.core.bottleneck import BottleneckDetector
from repro.core.characterization import QueueMix, WorkloadCharacterizer, WorkloadGroup
from repro.core.policy_table import PolicyAction, default_policy_table
from repro.devices.base import StorageDevice
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

    def __init__(
        self,
        sim,
        controller: CacheController,
        ssd: StorageDevice,
        hdd: StorageDevice,
        tracer: BlkTracer,
        config: LbicaConfig | None = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.ssd = ssd
        self.hdd = hdd
        self.tracer = tracer
        self.config = config or LbicaConfig()
        self.config.validate()
        self.detector = BottleneckDetector(
            margin=self.config.margin,
            min_cache_qtime_us=self.config.min_cache_qtime_us,
        )
        self.characterizer = WorkloadCharacterizer(self.config.characterizer)
        self.policy_table: dict[WorkloadGroup, PolicyAction] = default_policy_table()
        self.balancer = TailBypassBalancer(
            controller, ssd, hdd, max_bypass_per_round=self.config.max_bypass_per_round
        )
        self.decisions: list[LbicaDecision] = []
        self._quiet_streak = 0
        self._tick_count = 0
        self._group_streak: tuple[Optional[WorkloadGroup], int] = (None, 0)
        self._prev_ssd_qsize = 0
        self._started = False

    @classmethod
    def from_system(cls, system) -> "LbicaController":
        return cls(
            system.sim,
            system.controller,
            system.ssd,
            system.hdd,
            system.tracer,
            system.config.lbica,
        ).attach(system)

    def summary_stats(self) -> dict:
        return {
            "decisions": len(self.decisions),
            "bursts": len(self.burst_intervals),
            "policy_assignments": len(self.policy_timeline),
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic control loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.config.decision_interval_us, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        # One evaluation per decision interval; the config and device
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
        reading = self.detector.evaluate(now, cache_qtime, disk_qtime)

        group: Optional[WorkloadGroup] = None
        assigned: Optional[WritePolicy] = None
        bypassed = 0
        mix_dict: dict = {}

        # Drain the per-interval arrival windows every tick — even when
        # the window mix is not consulted — so the tracer's counters
        # never accumulate across intervals: with ``use_window_mix=False``
        # an undrained window would grow without bound and a later
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

        if reading.is_bottleneck:
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
                bypassed = self.balancer.rebalance(now).bypassed
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
                burst=reading.is_bottleneck,
                mix=mix_dict,
                group=group,
                policy_assigned=assigned,
                policy_active=self.controller.policy,
                bypassed=bypassed,
            )
        )
        sim.schedule(config.decision_interval_us, self._tick)

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
