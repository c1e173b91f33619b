"""The device server loop: queue -> model -> completion.

A :class:`StorageDevice` owns a :class:`~repro.io.device_queue.DeviceQueue`
and is the only code that moves an op through it: it enqueues, dispatches
up to ``depth`` operations concurrently, asking its service model for the
duration of each, and retires them.  It also maintains the per-direction
exponentially-weighted latency estimates that our iostat substrate reports
as the device's service time (``svctm``) — the ``ssdLatency`` /
``hddLatency`` terms of the paper's Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

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

    @property
    def total_ops(self) -> int:
        """Completed operation count."""
        return self.reads + self.writes


class StorageDevice:
    """A storage device: a queue served by a latency model.

    Args:
        sim: The simulator driving completions.
        name: Device name (``"ssd"`` / ``"hdd"``) used in traces.
        model: Service-time model.
        depth: Number of operations serviced concurrently (internal
            parallelism / NCQ).
        max_merge_blocks: Upper bound on a back-merged op's size in the
            device's queue; ``0`` disables merging.
        ewma_alpha: Weight of the newest sample in the latency estimate.
    """

    def __init__(
        self,
        sim,
        name: str,
        model: ServiceModel,
        depth: int = 1,
        max_merge_blocks: int = 32,
        ewma_alpha: float = 0.1,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.sim = sim
        self.name = name
        self.model = model
        self.depth = depth
        self.queue = DeviceQueue(name, max_merge_blocks)
        self.stats = DeviceStats()
        self._ewma_alpha = ewma_alpha
        self._lat_read = model.nominal_read_us
        self._lat_write = model.nominal_write_us
        self._paused_until = 0.0
        # Bound once: every started op schedules its completion with it.
        self._complete_cb = self._complete
        # Observers are registered per transition so the hot loops pay
        # one positional call per record, no transition-string dispatch.
        self._q_observers: list[Callable[[DeviceOp], None]] = []
        self._d_observers: list[Callable[[DeviceOp], None]] = []
        self._c_observers: list[Callable[[DeviceOp], None]] = []

    # ------------------------------------------------------------------
    # Submission / dispatch
    # ------------------------------------------------------------------
    def submit(self, op: DeviceOp) -> None:
        """Enqueue an operation; an idle device starts it in this call."""
        queue = self.queue
        now = self.sim.now
        # Runs once per device op, so the queue's bookkeeping is written
        # out here: occupancy integral, counters, tail back-merge, append.
        pending = queue.pending
        inflight = queue.inflight
        last = queue._last_change
        if now > last:
            queue._area += (len(pending) + inflight) * (now - last)
            queue._last_change = now
        qstats = queue.stats
        qstats.enqueued += 1
        by_tag = qstats.by_tag
        tag = op.tag
        by_tag[tag] = by_tag.get(tag, 0) + 1
        observers = self._q_observers
        if not pending and inflight < self.depth and now >= self._paused_until:
            # Idle device: the op starts in this call, with no pass
            # through the pending deque and no _dispatch frame.
            if inflight >= queue._window_max:
                queue._window_max = inflight + 1
            if observers:
                for fn in observers:
                    fn(op)
            self._start(op, now)
            return
        merged = False
        max_merge = queue.max_merge_blocks
        if max_merge and pending:
            # Back-merge when ``op`` extends the tail contiguously, in the
            # same direction and tag, within the size bound.
            tail = pending[-1]
            if (
                tail.lba + tail.nblocks == op.lba
                and tail.is_write == op.is_write
                and tail.tag == tag
                and tail.nblocks + op.nblocks <= max_merge
            ):
                tail.absorb(op)
                qstats.merged += 1
                merged = True
        if not merged:
            pending.append(op)
            qsize = len(pending) + inflight
            if qsize > queue._window_max:
                queue._window_max = qsize
        if observers:
            for fn in observers:
                fn(op)
        # Saturated devices skip the dispatcher call outright — the next
        # completion re-kicks it (same early-out _dispatch would take).
        if not merged and inflight < self.depth:
            self._dispatch()

    def _dispatch(self) -> None:
        # Cheap early-outs first: the end of a pause, or a submit to a
        # paused device, may find nothing it can start.
        queue = self.queue
        pending = queue.pending
        if not pending:
            return
        inflight = queue.inflight
        depth = self.depth
        if inflight >= depth:
            return
        now = self.sim.now
        if now < self._paused_until:
            return
        # Dispatch moves ops from pending to in-flight, which leaves qsize
        # unchanged, so the occupancy integral moves once per round.
        last = queue._last_change
        if now > last:
            queue._area += (len(pending) + inflight) * (now - last)
            queue._last_change = now
        start = self._start
        while pending and queue.inflight < depth:
            start(pending.popleft(), now)

    def _start(self, op: DeviceOp, now: float) -> None:
        """Dispatch ``op`` at ``now``: the only code that starts an op.

        Counts it in flight, prices it with the service model and
        schedules its completion.  ``submit`` calls it for an op that
        finds the device idle, ``_dispatch`` for each queued op.
        """
        queue = self.queue
        queue.inflight += 1
        queue.stats.dispatched += 1
        service = self.model.service_time(op, now)
        if not service >= 0.0:  # negative or NaN
            raise ValueError(f"{self.name}: invalid service time {service}")
        self.stats.busy_time += service
        observers = self._d_observers
        if observers:
            for fn in observers:
                fn(op)
        self.sim.schedule(service, self._complete_cb, op, service)

    def _complete(self, op: DeviceOp, service: float) -> None:
        now = self.sim.now
        queue = self.queue
        last = queue._last_change
        if now > last:
            queue._area += (len(queue.pending) + queue.inflight) * (now - last)
            queue._last_change = now
        queue.inflight -= 1
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
    def add_transition_observer(
        self, transition: str, fn: Callable[[DeviceOp], None]
    ) -> None:
        """Register ``fn(op)`` for one ``queue``/``issue``/``complete``
        transition (blktrace's Q/D/C).

        Each transition site (:meth:`submit`, ``_dispatch``,
        ``_complete``) runs once per device op and calls its observers
        positionally, with no transition string to dispatch on.
        """
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
