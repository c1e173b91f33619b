"""Per-tenant service-level objectives and their periodic monitor.

The paper's consolidated setting is only meaningful if each VM's service
quality is *tracked*: a tenant pays for a latency/hit-ratio target, and
the platform must know — per monitoring interval — whether the shared
cache is honouring it.  This module is the data model and the tracker:

- :class:`SloTarget` — a tenant's declared objectives (``p99_latency_us``
  and/or ``min_hit_ratio``), validated strictly like every other spec
  block;
- :class:`SloSample` — one tenant's compliance measurement for one
  monitoring interval (windowed p99, windowed hit ratio, and the
  per-objective verdicts);
- :class:`SloMonitor` — a periodic tick (driven by the simulator, like
  the iostat monitor) that turns completion latencies and the datapath's
  per-tenant hit/miss counters, read through its own
  :class:`~repro.trace.iostat.TenantWindows`, into a compliance series.

Everything here is a pure function of simulated state: the monitor reads
``Simulator.now``, windowed latency populations, and counter deltas, so
its series is bit-identical across processes and platforms and can be
pinned by golden fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.analysis.metrics import percentile
from repro.cache.controller import CacheController
from repro.io.request import Request
from repro.sim.engine import Simulator
from repro.trace.iostat import TenantWindows

__all__ = ["ServiceError", "SloTarget", "SloSample", "SloMonitor"]

#: Keys of an ``slo`` spec block.
_SLO_KEYS = {"p99_latency_us", "min_hit_ratio"}


class ServiceError(ValueError):
    """Raised for malformed service-layer declarations (SLOs, lifecycles)."""


@dataclass(frozen=True)
class SloTarget:
    """One tenant's declared service-level objectives.

    Attributes:
        p99_latency_us: The tenant's windowed p99 application latency
            must stay at or below this (µs); ``None`` declares no
            latency objective.
        min_hit_ratio: The tenant's windowed read hit ratio must stay at
            or above this; ``None`` declares no hit-ratio objective.
    """

    p99_latency_us: Optional[float] = None
    min_hit_ratio: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ServiceError` on inconsistent parameters."""
        if self.p99_latency_us is None and self.min_hit_ratio is None:
            raise ServiceError(
                "slo target: declare p99_latency_us and/or min_hit_ratio"
            )
        if self.p99_latency_us is not None and self.p99_latency_us <= 0:
            raise ServiceError("slo target: p99_latency_us must be positive")
        if self.min_hit_ratio is not None and not 0.0 <= self.min_hit_ratio <= 1.0:
            raise ServiceError("slo target: min_hit_ratio must be in [0, 1]")

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], context: str) -> "SloTarget":
        """Build and validate a target from its spec dict (strict keys)."""
        if not isinstance(spec, Mapping):
            raise ServiceError(f"{context}: slo must be a mapping")
        unknown = set(spec) - _SLO_KEYS
        if unknown:
            raise ServiceError(f"{context}: unknown slo keys {sorted(unknown)}")
        p99 = spec.get("p99_latency_us")
        mhr = spec.get("min_hit_ratio")
        try:
            target = cls(
                p99_latency_us=None if p99 is None else float(p99),
                min_hit_ratio=None if mhr is None else float(mhr),
            )
            target.validate()
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"{context}: {exc}") from None
        return target

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (stored artifacts, reports)."""
        return {
            "p99_latency_us": self.p99_latency_us,
            "min_hit_ratio": self.min_hit_ratio,
        }


@dataclass(frozen=True)
class SloSample:
    """One tenant's SLO compliance over one monitoring interval.

    An interval with no completed requests (and no read blocks) has
    nothing to judge: both verdicts are vacuously ``True`` and the
    windowed statistics are zero — explicitly *not* ``nan``, so the
    series stays JSON-stable.
    """

    time: float
    tenant_id: int
    p99_latency_us: float
    hit_ratio: float
    completions: int
    read_blocks: int
    p99_ok: bool
    hit_ok: bool

    @property
    def compliant(self) -> bool:
        """Whether every declared objective held this interval."""
        return self.p99_ok and self.hit_ok

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (stored artifacts, reports)."""
        return {
            "time": self.time,
            "tenant_id": self.tenant_id,
            "p99_latency_us": self.p99_latency_us,
            "hit_ratio": self.hit_ratio,
            "completions": self.completions,
            "read_blocks": self.read_blocks,
            "p99_ok": self.p99_ok,
            "hit_ok": self.hit_ok,
            "compliant": self.compliant,
        }


class SloMonitor:
    """Periodic per-tenant SLO compliance tracking.

    Wire :attr:`record_completion` as a cache-controller completion hook
    and call :meth:`start` once the simulator is about to run; every
    ``interval_us`` the monitor closes the window, judges each tracked
    tenant against its target, and appends one :class:`SloSample` per
    *active* tenant to :attr:`samples`.

    Args:
        sim: The simulator (clock + tick scheduling).
        controller: The cache datapath (per-tenant hit/miss counters).
        targets: ``{tenant_id: SloTarget}`` — only these tenants are
            tracked.
        interval_us: Tick period; the scenario layer passes the
            monitoring interval so compliance lines up with iostat
            samples.
        activity_probe: Optional ``f(tenant_id) -> bool``; an inactive
            tenant (not yet arrived, or departed) is skipped for the
            interval.  ``None`` treats every tracked tenant as active.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: CacheController,
        targets: Mapping[int, SloTarget],
        interval_us: float,
        activity_probe: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if interval_us <= 0:
            raise ServiceError("slo monitor: interval_us must be positive")
        if not targets:
            raise ServiceError("slo monitor: at least one tenant target required")
        for tid, target in targets.items():
            target.validate()
            if tid < 0:
                raise ServiceError("slo monitor: tenant ids must be non-negative")
        self.sim = sim
        self.targets = dict(targets)
        self.interval_us = float(interval_us)
        self.activity_probe = activity_probe
        self.samples: list[SloSample] = []
        self.violations: dict[int, int] = {tid: 0 for tid in sorted(self.targets)}
        self.intervals: dict[int, int] = {tid: 0 for tid in sorted(self.targets)}
        self._windows = TenantWindows(controller, tenants=self.targets)
        #: Completion hook collecting the tracked tenants' latencies.
        self.record_completion: Callable[[Request], None] = self._windows.record
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic compliance tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.interval_us, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        probe = self.activity_probe
        for tid in sorted(self.targets):
            lats, d_hits, d_misses = self._windows.take(tid)
            if probe is not None and not probe(tid):
                continue
            target = self.targets[tid]
            read_blocks = d_hits + d_misses
            p99 = percentile(lats, 99.0) if lats else 0.0
            hit_ratio = d_hits / read_blocks if read_blocks else 0.0
            p99_ok = (
                target.p99_latency_us is None
                or not lats
                or p99 <= target.p99_latency_us
            )
            hit_ok = (
                target.min_hit_ratio is None
                or not read_blocks
                or hit_ratio >= target.min_hit_ratio
            )
            sample = SloSample(
                time=now,
                tenant_id=tid,
                p99_latency_us=p99,
                hit_ratio=hit_ratio,
                completions=len(lats),
                read_blocks=read_blocks,
                p99_ok=p99_ok,
                hit_ok=hit_ok,
            )
            self.samples.append(sample)
            self.intervals[tid] += 1
            if not sample.compliant:
                self.violations[tid] += 1
        self.sim.schedule(self.interval_us, self._tick)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Per-tenant compliance counters (JSON-friendly)."""
        tenants: dict[str, Any] = {}
        for tid in sorted(self.targets):
            intervals = self.intervals[tid]
            violations = self.violations[tid]
            tenants[str(tid)] = {
                "target": self.targets[tid].as_dict(),
                "intervals": intervals,
                "violations": violations,
                "compliance": (
                    (intervals - violations) / intervals if intervals else 1.0
                ),
            }
        return {
            "tenants": tenants,
            "n_samples": len(self.samples),
            "total_violations": sum(self.violations.values()),
        }

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Point-in-time compliance state for the obs layer (JSON-ready).

        Reports each tracked tenant's most recent sample verdict plus
        the running violation totals — a pull-style read of existing
        state, called once per monitoring interval.
        """
        latest: dict[int, SloSample] = {}
        for sample in reversed(self.samples):
            if sample.tenant_id not in latest:
                latest[sample.tenant_id] = sample
            if len(latest) == len(self.targets):
                break
        return {
            "tenants": {
                str(tid): {
                    "compliant": latest[tid].compliant,
                    "p99_latency_us": latest[tid].p99_latency_us,
                    "hit_ratio": latest[tid].hit_ratio,
                    "violations": self.violations[tid],
                }
                for tid in sorted(latest)
            },
            "total_violations": sum(self.violations.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SloMonitor(tenants={sorted(self.targets)}, "
            f"samples={len(self.samples)})"
        )
