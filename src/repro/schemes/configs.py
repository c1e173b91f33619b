"""Tuning dataclasses of the built-in schemes.

:class:`~repro.config.SystemConfig` holds one block per scheme, so these
classes live apart from the scheme implementations: building a config
imports no controller, and a run imports only its own scheme's module.
Each implementation module re-exports its config, so
``from repro.schemes.dynshare import DynShareConfig`` and the other
historical import paths keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.characterization import CharacterizerConfig

__all__ = [
    "SibConfig",
    "LbicaConfig",
    "PartitionConfig",
    "DynShareConfig",
    "SloStealConfig",
]


@dataclass
class SibConfig:
    """SIB tuning.

    Attributes:
        check_interval_us: Period of the balancing loop (SIB runs finer
            than a monitoring interval).
        scan_overhead_us_per_op: Estimation cost charged per pending op
            each round (stalls SSD dispatch).
        max_bypass_per_round: Bound on requests moved per round.
        margin: Required ``cache_Qtime / disk_Qtime`` ratio to act.
        min_cache_qtime_us: Absolute floor below which SIB stays idle.
        promote_on_miss: Whether SIB's write-through cache promotes read
            misses.  Kim et al. describe a WT/WO design; with promotion
            fully disabled a read-heavy workload never hits and the
            scheme collapses below even the WB baseline, which does not
            match the relative orderings of the LBICA paper's figures —
            so the default keeps read promotion (plain WT cache) and the
            strict WT+WO variant is exercised by the ablation benchmark.
    """

    check_interval_us: float = 12_500.0
    scan_overhead_us_per_op: float = 2.0
    max_bypass_per_round: int = 64
    margin: float = 1.0
    min_cache_qtime_us: float = 80_000.0
    promote_on_miss: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.check_interval_us <= 0:
            raise ValueError("check_interval_us must be positive")
        if self.scan_overhead_us_per_op < 0:
            raise ValueError("scan_overhead_us_per_op must be non-negative")
        if self.max_bypass_per_round <= 0:
            raise ValueError("max_bypass_per_round must be positive")
        if self.margin < 1.0:
            raise ValueError("margin must be >= 1.0")


@dataclass
class LbicaConfig:
    """LBICA tuning.

    Attributes:
        decision_interval_us: Period of the control loop (the paper runs
            it at the monitoring interval).
        margin: Bottleneck margin for Eq. 1 (see
            :class:`~repro.core.bottleneck.BottleneckDetector`).
        min_cache_qtime_us: Absolute burst floor.
        characterizer: Classifier thresholds.
        max_bypass_per_round: Group-3 tail-bypass bound per tick.
        revert_after_quiet: If set, restore WB after this many consecutive
            non-burst evaluations (the paper keeps the assigned policy;
            this knob exists for the ablation study).
        confirm_ticks: A policy is assigned only after the same group has
            been classified on this many consecutive burst evaluations —
            hysteresis against one noisy queue snapshot flapping the
            policy.  Because an unaddressed bottleneck keeps re-detecting
            every interval, confirmation delays a real assignment by at
            most ``confirm_ticks - 1`` intervals.
        require_rising: Only change policy while the cache queue time is
            still *growing*.  After a policy switch the old queue drains
            for several intervals; during that drain the arrival mix
            reflects the new policy's routing (e.g. only reads reach the
            cache under RO) and would otherwise be misread as a new
            workload.  A shrinking bottleneck needs no rebalancing.
            Group-3 tail bypass is exempt: it is per-tick relief, not a
            policy change.
        use_window_mix: Characterize from the interval-accumulated queue
            mix (robust) instead of the instantaneous snapshot.
    """

    decision_interval_us: float = 50_000.0
    margin: float = 1.0
    min_cache_qtime_us: float = 80_000.0
    characterizer: CharacterizerConfig = field(default_factory=CharacterizerConfig)
    max_bypass_per_round: int = 64
    revert_after_quiet: Optional[int] = None
    confirm_ticks: int = 2
    require_rising: bool = True
    use_window_mix: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.decision_interval_us <= 0:
            raise ValueError("decision_interval_us must be positive")
        if self.revert_after_quiet is not None and self.revert_after_quiet <= 0:
            raise ValueError("revert_after_quiet must be positive when set")
        if self.confirm_ticks < 1:
            raise ValueError("confirm_ticks must be >= 1")
        self.characterizer.validate()


#: Accepted ``PartitionConfig.variant`` values.
_VARIANTS = ("fair", "proportional")


@dataclass
class PartitionConfig:
    """Static-partitioning tuning.

    Attributes:
        variant: ``"fair"`` (equal shares) or ``"proportional"``
            (weighted by ``weights``).
        weights: Per-tenant weights for the proportional variant, in
            ``tenant_id`` order; missing entries default to ``1.0`` and
            extras are ignored.  Unused by ``fair``.
        min_share_blocks: Floor under any tenant's share, so a tiny
            weight still leaves room to make progress.
        report_interval_us: Period of the observation tick that logs
            occupancy snapshots (``0`` disables the periodic log; the
            startup share assignment is always logged).
    """

    variant: str = "fair"
    weights: list[float] = field(default_factory=list)
    min_share_blocks: int = 64
    report_interval_us: float = 50_000.0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.variant not in _VARIANTS:
            raise ValueError(
                f"partition variant must be one of {_VARIANTS}, got {self.variant!r}"
            )
        if any(w <= 0 for w in self.weights):
            raise ValueError("partition weights must be positive")
        if self.min_share_blocks < 1:
            raise ValueError("min_share_blocks must be >= 1")
        if self.report_interval_us < 0:
            raise ValueError("report_interval_us must be non-negative")


@dataclass
class DynShareConfig:
    """Dynamic-allocator tuning.

    Attributes:
        decision_interval_us: Period of the reallocation loop (aligned
            to the monitoring interval by :class:`~repro.config.
            SystemConfig`, like LBICA's decision loop).
        min_share_blocks: Floor under any tenant's share; reallocation
            never drains a tenant below it.
        max_step_blocks: Largest quota move per tick — small steps keep
            the allocator stable and give the hit-ratio curve distinct
            nearby points to estimate slopes from.
        ewma: Weight of the newest window in the smoothed per-tenant
            miss pressure.
        curve_points: Observed ``(share, hit_ratio)`` points retained
            per tenant (the decision log keeps every decision; this
            bounds only the working curve).
    """

    decision_interval_us: float = 50_000.0
    min_share_blocks: int = 64
    max_step_blocks: int = 256
    ewma: float = 0.3
    curve_points: int = 16

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.decision_interval_us <= 0:
            raise ValueError("decision_interval_us must be positive")
        if self.min_share_blocks < 1:
            raise ValueError("min_share_blocks must be >= 1")
        if self.max_step_blocks < 1:
            raise ValueError("max_step_blocks must be >= 1")
        if not 0.0 < self.ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        if self.curve_points < 2:
            raise ValueError("curve_points must be >= 2")


@dataclass
class SloStealConfig:
    """SLO-stealing tuning.

    Attributes:
        decision_interval_us: Period of the stealing loop (aligned to
            the monitoring interval by
            :class:`~repro.config.SystemConfig`).
        min_share_blocks: Floor under any tenant's share; stealing never
            drains a donor below it.
        max_step_blocks: Largest quota move per tick.
        donor_headroom: A tenant may donate only while its violation
            ratio is at or below this (strictly less than 1.0 keeps a
            safety margin between donors and the violation boundary).
    """

    decision_interval_us: float = 50_000.0
    min_share_blocks: int = 64
    max_step_blocks: int = 256
    donor_headroom: float = 0.8

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.decision_interval_us <= 0:
            raise ValueError("decision_interval_us must be positive")
        if self.min_share_blocks < 1:
            raise ValueError("min_share_blocks must be >= 1")
        if self.max_step_blocks < 1:
            raise ValueError("max_step_blocks must be >= 1")
        if not 0.0 < self.donor_headroom < 1.0:
            raise ValueError("donor_headroom must be in (0, 1)")
