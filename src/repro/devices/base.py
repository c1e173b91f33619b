"""The device server loop: queue -> model -> completion.

A :class:`StorageDevice` owns a :class:`~repro.io.device_queue.DeviceQueue`
and dispatches up to ``depth`` operations concurrently, asking its service
model for the duration of each.  It also maintains the per-direction
exponentially-weighted latency estimates that our iostat substrate reports
as the device's service time (``svctm``) — the ``ssdLatency`` /
``hddLatency`` terms of the paper's Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.io.device_queue import DeviceQueue
from repro.io.request import DeviceOp

__all__ = ["ServiceModel", "StorageDevice", "DeviceStats"]


class ServiceModel(Protocol):
    """Anything that can price a device operation."""

    #: Nominal average latency (µs), used before any measurement exists.
    nominal_read_us: float
    nominal_write_us: float

    def service_time(self, op: DeviceOp, now: float) -> float:
        """Service duration (µs) for ``op`` starting at ``now``."""
        ...


@dataclass(slots=True)
class DeviceStats:
    """Lifetime counters for one device."""

    reads: int = 0
    writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    busy_time: float = 0.0
    total_service_time: float = 0.0
    #: Completion counts keyed by :class:`~repro.io.request.OpTag` member;
    #: since ``OpTag`` is a ``str`` subclass the keys hash and compare
    #: equal to their letter (``stats.completions_by_tag.get("P")`` works).
    completions_by_tag: dict = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        """Completed operation count."""
        return self.reads + self.writes

    @property
    def mean_service_time(self) -> float:
        """Average measured service time (µs) over all completions."""
        return self.total_service_time / self.total_ops if self.total_ops else 0.0


class StorageDevice:
    """A storage device: a queue served by a latency model.

    Args:
        sim: The simulator driving completions.
        name: Device name (``"ssd"`` / ``"hdd"``) used in traces.
        model: Service-time model.
        depth: Number of operations serviced concurrently (internal
            parallelism / NCQ).
        queue: Optional pre-built queue (a default is created otherwise).
        ewma_alpha: Weight of the newest sample in the latency estimate.
    """

    def __init__(
        self,
        sim,
        name: str,
        model: ServiceModel,
        depth: int = 1,
        queue: Optional[DeviceQueue] = None,
        ewma_alpha: float = 0.1,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.sim = sim
        self.name = name
        self.model = model
        self.depth = depth
        self.queue = queue if queue is not None else DeviceQueue(name)
        self.stats = DeviceStats()
        self._ewma_alpha = ewma_alpha
        self._lat_read = model.nominal_read_us
        self._lat_write = model.nominal_write_us
        self._paused_until = 0.0
        # Observers are registered per transition so the hot loops pay
        # one positional call per record, no transition-string dispatch.
        self._q_observers: list[Callable[[DeviceOp], None]] = []
        self._d_observers: list[Callable[[DeviceOp], None]] = []
        self._c_observers: list[Callable[[DeviceOp], None]] = []

    # ------------------------------------------------------------------
    # Submission / dispatch
    # ------------------------------------------------------------------
    def submit(self, op: DeviceOp) -> None:
        """Enqueue an operation and kick the dispatcher."""
        queue = self.queue
        now = self.sim.now
        # Inlined DeviceQueue.push — one call per device op; the method
        # remains the reference implementation for every other caller.
        # Occupancy integral, accounting, tail back-merge, append:
        pending = queue.pending
        inflight = queue.inflight
        last = queue._last_change
        if now > last:
            queue._area += (len(pending) + len(inflight)) * (now - last)
            queue._last_change = now
        op.enqueue_time = now
        qstats = queue.stats
        qstats.enqueued += 1
        qstats.by_tag[op.tag] += 1
        merged = False
        max_merge = queue.max_merge_blocks
        if max_merge and pending:
            tail = pending[-1]
            if tail.can_merge_back(op, max_merge):
                tail.absorb(op)
                qstats.merged += 1
                merged = True
        if not merged:
            pending.append(op)
            qsize = len(pending) + len(inflight)
            if qsize > queue._window_max:
                queue._window_max = qsize
        observers = self._q_observers
        if observers:
            for fn in observers:
                fn(op)
        # Saturated devices skip the dispatcher call outright — the next
        # completion re-kicks it (same early-out _dispatch would take).
        if not merged and len(inflight) < self.depth:
            self._dispatch()

    def _dispatch(self) -> None:
        # Cheap early-outs first: roughly half the calls (the kick after
        # each completion) find nothing to dispatch.
        queue = self.queue
        if not queue.pending:
            return
        inflight = queue.inflight
        depth = self.depth
        if len(inflight) >= depth:
            return
        now = self.sim.now
        if now < self._paused_until:
            return
        # Inner loop runs once per dispatched op; hoist every attribute
        # chain that is loop-invariant.  DeviceQueue.pop_next is inlined
        # (the occupancy integral only moves on the first iteration —
        # after that ``now == last_change``).
        observers = self._d_observers
        service_time = self.model.service_time
        complete = self._complete
        schedule = self.sim.schedule
        stats = self.stats
        pending = queue.pending
        qstats = queue.stats
        while len(inflight) < depth:
            if not pending:
                break
            last = queue._last_change
            if now > last:
                queue._area += (len(pending) + len(inflight)) * (now - last)
                queue._last_change = now
            op = pending.popleft()
            op.dispatch_time = now
            inflight.add(op.op_id)
            qstats.dispatched += 1
            service = service_time(op, now)
            if service < 0:
                raise ValueError(f"{self.name}: negative service time {service}")
            stats.busy_time += service
            if observers:
                for fn in observers:
                    fn(op)
            schedule(service, complete, op, service)

    def _complete(self, op: DeviceOp, service: float) -> None:
        now = self.sim.now
        queue = self.queue
        # Inlined DeviceQueue.complete (occupancy integral + retire).
        last = queue._last_change
        if now > last:
            queue._area += (len(queue.pending) + len(queue.inflight)) * (now - last)
            queue._last_change = now
        queue.inflight.discard(op.op_id)
        op.complete_time = now
        queue.stats.completed += 1
        # Lifetime counters and the per-direction EWMA latency estimates,
        # updated once per completion.
        stats = self.stats
        nblocks = op.nblocks
        a = self._ewma_alpha
        if op.is_write:
            stats.writes += 1
            stats.blocks_written += nblocks
            self._lat_write = (1 - a) * self._lat_write + a * service
        else:
            stats.reads += 1
            stats.blocks_read += nblocks
            self._lat_read = (1 - a) * self._lat_read + a * service
        stats.total_service_time += service
        by_tag = stats.completions_by_tag
        tag = op.tag
        by_tag[tag] = by_tag.get(tag, 0) + 1
        observers = self._c_observers
        if observers:
            for fn in observers:
                fn(op)
        merged = op.merged
        if merged:
            for child in (op, *merged):
                if child.on_complete is not None:
                    child.on_complete(child)
        elif op.on_complete is not None:
            op.on_complete(op)
        # Inlined _dispatch early-out: after most completions the pending
        # queue is empty (on_complete may have pushed, so re-read it).
        if queue.pending:
            self._dispatch()

    # ------------------------------------------------------------------
    # Pausing (models controller overhead, e.g. SIB's selection scans)
    # ------------------------------------------------------------------
    def pause_dispatch(self, duration: float) -> None:
        """Stall dispatch for ``duration`` µs (in-flight ops still finish)."""
        if duration <= 0:
            return
        until = self.sim.now + duration
        if until > self._paused_until:
            self._paused_until = until
            self.sim.schedule_at(until, self._dispatch)

    # ------------------------------------------------------------------
    # Latency estimates (Eq. 1 inputs)
    # ------------------------------------------------------------------
    @property
    def read_latency(self) -> float:
        """EWMA-estimated read service time (µs)."""
        return self._lat_read

    @property
    def write_latency(self) -> float:
        """EWMA-estimated write service time (µs)."""
        return self._lat_write

    @property
    def avg_latency(self) -> float:
        """Blended service-time estimate — the Eq. 1 latency term (µs)."""
        return (self._lat_read + self._lat_write) / 2.0

    @property
    def qsize(self) -> int:
        """Current queue depth (pending + in-flight)."""
        return self.queue.qsize

    def queue_time(self) -> float:
        """Eq. 1: ``qsize × avg_latency`` — the device's max queue time."""
        return self.qsize * self.avg_latency

    # ------------------------------------------------------------------
    # Observation (blktrace hooks)
    # ------------------------------------------------------------------
    def add_observer(self, fn: Callable[[DeviceOp, str], None]) -> None:
        """Register a callback invoked as ``fn(op, action)`` for every
        ``queue`` / ``issue`` / ``complete`` transition (blktrace's Q/D/C).

        Observer dispatch is inlined at the three transition sites
        (:meth:`submit`, ``_dispatch``, ``_complete``) — they run once
        per device op.  Internally one wrapper per transition is stored;
        a tracer that wants the raw per-transition call (no transition
        string, no extra frame) uses :meth:`add_transition_observer`.
        """
        self._q_observers.append(lambda op, _fn=fn: _fn(op, "queue"))
        self._d_observers.append(lambda op, _fn=fn: _fn(op, "issue"))
        self._c_observers.append(lambda op, _fn=fn: _fn(op, "complete"))

    def add_transition_observer(
        self, transition: str, fn: Callable[[DeviceOp], None]
    ) -> None:
        """Register ``fn(op)`` for one ``queue``/``issue``/``complete``
        transition — the allocation-free fast path used by the tracer."""
        try:
            observers = {
                "queue": self._q_observers,
                "issue": self._d_observers,
                "complete": self._c_observers,
            }[transition]
        except KeyError:
            raise ValueError(f"unknown transition {transition!r}") from None
        observers.append(fn)

    def telemetry_snapshot(self) -> dict:
        """Point-in-time device state for the obs layer (JSON-ready).

        A pull-style read of existing counters — called once per
        monitoring interval, never from the per-op hot paths.
        """
        stats = self.stats
        return {
            "qsize": self.qsize,
            "reads": stats.reads,
            "writes": stats.writes,
            "blocks_read": stats.blocks_read,
            "blocks_written": stats.blocks_written,
            "busy_time_us": stats.busy_time,
            "read_latency_us": self._lat_read,
            "write_latency_us": self._lat_write,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StorageDevice({self.name!r}, qsize={self.qsize})"
