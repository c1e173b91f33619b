"""The iostat stand-in: interval statistics and Eq. 1 queue times.

The paper's bottleneck detector runs on iostat output: per-interval queue
sizes and service times for the SSD cache and the HDD disk subsystem,
combined as

    ``cache_Qtime = ssdQSize × ssdLatency``
    ``disk_Qtime  = hddQSize × hddLatency``     (Eq. 1)

:class:`IostatMonitor` samples both devices every ``interval_us`` and
emits an :class:`IntervalSample` carrying queue depths (max and
time-weighted average over the window, matching how the paper reports
"maximum latency" per 10-minute interval), latency estimates, Eq. 1 queue
times, and completed-request latency statistics for that interval.

:class:`TenantWindows` is the per-tenant counterpart that the SLO
monitor, ``dynshare`` and ``slosteal`` read on their own ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.devices.base import StorageDevice
from repro.io.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.controller import CacheController

__all__ = ["IostatMonitor", "IntervalSample", "TenantWindows", "eq1_queue_time"]


def eq1_queue_time(qsize: float, latency_us: float) -> float:
    """Eq. 1: maximum queue time = queue size × device latency (µs)."""
    if qsize < 0 or latency_us < 0:
        raise ValueError("queue size and latency must be non-negative")
    return qsize * latency_us


@dataclass
class IntervalSample:
    """Statistics for one monitoring interval.

    Attributes mirror what iostat would report plus the paper's derived
    Eq. 1 values.  ``cache_qtime``/``disk_qtime`` use the *max* queue
    depth observed in the window — the paper plots "I/O load (max
    latency)" per interval.
    """

    index: int
    t_start: float
    t_end: float
    ssd_qsize_max: int
    ssd_qsize_avg: float
    hdd_qsize_max: int
    hdd_qsize_avg: float
    ssd_latency: float
    hdd_latency: float
    cache_qtime: float
    disk_qtime: float
    completed: int
    reads: int
    writes: int
    bypassed: int
    avg_latency: float
    max_latency: float
    #: Busy fraction of the interval per device (iostat's %util; can
    #: exceed 1.0 on devices with internal parallelism).
    ssd_util: float = 0.0
    hdd_util: float = 0.0
    #: Per-tenant completions and mean latency within this interval
    #: (keyed by ``Request.tenant_id``; single-tenant runs use key 0).
    tenant_completed: dict[int, int] = field(default_factory=dict)
    tenant_avg_latency: dict[int, float] = field(default_factory=dict)


@dataclass(slots=True)
class _WindowAccum:
    """Per-interval request accumulator.

    One :meth:`record` per completed request, so it keeps the fewest
    counters that give the sample: the window's ``completed`` is
    ``reads + writes``, computed at the tick, and each tenant's
    ``[completed, latency_sum]`` sits in one list slot under
    ``tenants``, so a completion makes one dict probe.
    """

    reads: int = 0
    writes: int = 0
    bypassed: int = 0
    total_latency: float = 0.0
    max_latency: float = 0.0
    #: ``tenant_id -> [completed, latency_sum]`` within the window, in
    #: first-completion order.
    tenants: dict[int, list] = field(default_factory=dict)

    def record(self, request: Request) -> None:
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
        if request.bypassed:
            self.bypassed += 1
        lat = request.complete_time - request.arrival
        self.total_latency += lat
        if lat > self.max_latency:
            self.max_latency = lat
        slot = self.tenants.get(request.tenant_id)
        if slot is None:
            self.tenants[request.tenant_id] = [1, lat]
        else:
            slot[0] += 1
            slot[1] += lat


class TenantWindows:
    """Per-tenant latency and read hit/miss windows for one consumer.

    A consumer closes a tenant's window on its own tick with
    :meth:`take`.  The hit/miss deltas come from the datapath's
    per-tenant counters; latencies only from :meth:`record`, wired as a
    completion hook by the consumers that need them.  ``tenants``, if
    given, limits :meth:`record` to those tenants.
    """

    def __init__(
        self, controller: CacheController, tenants: Optional[Iterable[int]] = None
    ) -> None:
        self.controller = controller
        self.tenants = None if tenants is None else frozenset(tenants)
        self._latencies: dict[int, list[float]] = {}
        #: ``tenant_id -> (read_hit_blocks, read_miss_blocks)`` at its last take.
        self._read_blocks: dict[int, tuple[int, int]] = {}

    def record(self, request: Request) -> None:
        """Completion hook: add the request's latency to its tenant's window."""
        tenant_id = request.tenant_id
        if self.tenants is not None and tenant_id not in self.tenants:
            return
        lats = self._latencies.get(tenant_id)
        if lats is None:
            lats = self._latencies[tenant_id] = []
        lats.append(request.complete_time - request.arrival)

    def take(self, tenant_id: int) -> tuple[list[float], int, int]:
        """``(latencies, read-hit delta, read-miss delta)`` since the
        tenant's previous take, which starts its next window."""
        lats = self._latencies.pop(tenant_id, [])
        stats = self.controller.stats.tenants.get(tenant_id)
        hits = stats.read_hit_blocks if stats is not None else 0
        misses = stats.read_miss_blocks if stats is not None else 0
        prev_hits, prev_misses = self._read_blocks.get(tenant_id, (0, 0))
        self._read_blocks[tenant_id] = (hits, misses)
        return lats, hits - prev_hits, misses - prev_misses

    def forget(self, tenant_id: int) -> None:
        """Drop the tenant's recorded latencies (it departed)."""
        self._latencies.pop(tenant_id, None)


class IostatMonitor:
    """Samples both devices every interval and logs :class:`IntervalSample`.

    Args:
        sim: The simulator.
        ssd: Cache-tier device.
        hdd: Disk-subsystem device.
        interval_us: Sampling period (the paper uses 10-minute wall-clock
            intervals; simulation presets scale this down).

    Subscribers register with :meth:`add_sample_hook` (the obs layer's
    per-interval snapshot rides there).  The schemes read the devices'
    live queue times themselves and never subscribe.
    """

    def __init__(
        self,
        sim,
        ssd: StorageDevice,
        hdd: StorageDevice,
        interval_us: float,
    ) -> None:
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self.sim = sim
        self.ssd = ssd
        self.hdd = hdd
        self.interval_us = interval_us
        self.samples: list[IntervalSample] = []
        # One persistent accumulator, reset in place each tick; the
        # completion hook is its bound ``record`` so the per-request hot
        # path pays no forwarding frame.
        self._accum = _WindowAccum()
        #: Feed a completed application request into the current window
        #: (wire this as a cache-controller completion hook).
        self.record_completion: Callable[[Request], None] = self._accum.record
        self._prev_busy = (0.0, 0.0)
        self._started = False
        # Per-sample observers (the obs layer's snapshot rides here) —
        # empty by default, so a telemetry-free run pays one
        # falsy check per interval, never per event.
        self._sample_hooks: list[Callable[[IntervalSample], None]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._started:
            return
        self._started = True
        now = self.sim.now
        self.ssd.queue.reset_window(now)
        self.hdd.queue.reset_window(now)
        self.sim.schedule(self.interval_us, self._tick)

    def add_sample_hook(self, fn: Callable[[IntervalSample], None]) -> None:
        """Call ``fn(sample)`` after each interval sample is recorded.

        Hooks run in registration order and ride the existing tick
        event — registering one schedules nothing new, so the event
        sequence is unchanged.
        """
        self._sample_hooks.append(fn)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        index = len(self.samples)
        ssd_avg, ssd_max = self.ssd.queue.window_stats(now)
        hdd_avg, hdd_max = self.hdd.queue.window_stats(now)
        ssd_busy, hdd_busy = self.ssd.stats.busy_time, self.hdd.stats.busy_time
        prev_ssd_busy, prev_hdd_busy = self._prev_busy
        self._prev_busy = (ssd_busy, hdd_busy)
        acc = self._accum
        completed = acc.reads + acc.writes
        tenants = acc.tenants
        sample = IntervalSample(
            index=index,
            t_start=now - self.interval_us,
            t_end=now,
            ssd_qsize_max=ssd_max,
            ssd_qsize_avg=ssd_avg,
            hdd_qsize_max=hdd_max,
            hdd_qsize_avg=hdd_avg,
            ssd_latency=self.ssd.avg_latency,
            hdd_latency=self.hdd.avg_latency,
            cache_qtime=eq1_queue_time(ssd_max, self.ssd.avg_latency),
            disk_qtime=eq1_queue_time(hdd_max, self.hdd.avg_latency),
            completed=completed,
            reads=acc.reads,
            writes=acc.writes,
            bypassed=acc.bypassed,
            avg_latency=acc.total_latency / completed if completed else 0.0,
            max_latency=acc.max_latency,
            ssd_util=(ssd_busy - prev_ssd_busy) / self.interval_us,
            hdd_util=(hdd_busy - prev_hdd_busy) / self.interval_us,
            tenant_completed={tid: n for tid, (n, _) in tenants.items()},
            tenant_avg_latency={tid: lat / n for tid, (n, lat) in tenants.items()},
        )
        self.samples.append(sample)
        # Reset the (persistent) accumulator in place — its bound
        # ``record`` stays registered as the completion hook.
        acc.reads = acc.writes = acc.bypassed = 0
        acc.total_latency = 0.0
        acc.max_latency = 0.0
        acc.tenants = {}
        self.ssd.queue.reset_window(now)
        self.hdd.queue.reset_window(now)
        if self._sample_hooks:
            for hook in self._sample_hooks:
                hook(sample)
        self.sim.schedule(self.interval_us, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IostatMonitor(interval={self.interval_us}µs, samples={len(self.samples)})"
