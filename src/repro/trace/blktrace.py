"""The blktrace stand-in: block-layer event logging and queue snapshots.

LBICA "uses blktrace as a block level I/O tracing tool to get the list of
in-queue requests" (Section III-B).  :class:`BlkTracer` provides exactly
that: attach it to one or more devices and it records every
queue/issue/complete transition in a bounded ring buffer, and answers
*what is sitting in this queue right now, by type* — the input to the
workload characterizer.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable

from repro.devices.base import StorageDevice
from repro.io.request import DeviceOp, OpTag
from repro.trace.records import TraceRecord

__all__ = ["BlkTracer"]


class BlkTracer:
    """Records block-layer events and snapshots queue composition.

    Args:
        sim: The simulator (for timestamps).
        capacity: Ring-buffer size; older records are discarded (blktrace
            similarly drops data when its buffers overflow).
        record_events: When ``False``, register no transition observers:
            no per-transition :class:`TraceRecord` is built or retained,
            and the tracer answers only window counts and queue
            snapshots — everything the LBICA characterizer consumes.
            Batch runners whose callers never see the system
            (``ScenarioSpec.run``) use this; capture for replay
            (``dump``/``records``) needs the default ``True``.
    """

    def __init__(
        self, sim, capacity: int = 100_000, record_events: bool = True
    ) -> None:
        self.sim = sim
        self.record_events = record_events
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self._devices: dict[str, StorageDevice] = {}
        # Per device, a copy of its queue's ``by_tag`` counts as of the
        # start of the current window (``attach`` or the last take).
        self._window_starts: dict[str, dict] = {}
        self.dropped = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, device: StorageDevice) -> None:
        """Start tracing a device's queue transitions."""
        if device.name in self._devices:
            raise ValueError(f"device {device.name!r} already attached")
        self._devices[device.name] = device
        self._window_starts[device.name] = device.queue.stats.by_tag.copy()
        for transition, observe in self._make_observers(device.name):
            device.add_transition_observer(transition, observe)

    def _make_observers(self, name: str):
        # Window counts and snapshots are read from the queue, so only
        # record capture needs a per-transition observer.
        if not self.record_events:
            return ()
        # Hot path: one call per queue/issue/complete transition on every
        # device op.  One specialized closure per transition folds the
        # action letter into a constant, and ``tuple.__new__`` skips the
        # NamedTuple constructor's keyword machinery (~30% per record).
        records = self.records
        append = records.append
        maxlen = records.maxlen
        new = tuple.__new__
        record_cls = TraceRecord
        sim = self.sim

        def observe_queue(op: DeviceOp) -> None:
            if len(records) == maxlen:
                self.dropped += 1
            append(
                new(
                    record_cls,
                    (sim.now, name, "Q", op.tag, op.is_write, op.lba, op.nblocks, op.op_id),
                )
            )

        def observe_issue(op: DeviceOp) -> None:
            if len(records) == maxlen:
                self.dropped += 1
            append(
                new(
                    record_cls,
                    (sim.now, name, "D", op.tag, op.is_write, op.lba, op.nblocks, op.op_id),
                )
            )

        def observe_complete(op: DeviceOp) -> None:
            if len(records) == maxlen:
                self.dropped += 1
            append(
                new(
                    record_cls,
                    (sim.now, name, "C", op.tag, op.is_write, op.lba, op.nblocks, op.op_id),
                )
            )

        return (
            ("queue", observe_queue),
            ("issue", observe_issue),
            ("complete", observe_complete),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def queue_snapshot(self, device_name: str) -> Counter:
        """R/W/P/E composition of a device's pending queue right now."""
        device = self._devices.get(device_name)
        if device is None:
            raise KeyError(f"device {device_name!r} is not traced")
        return device.queue.snapshot_tags()

    def take_window_counts(self, device_name: str) -> Counter:
        """R/W/P/E counts of ops *queued since the last call* (or since
        :meth:`attach`), merged ops included.

        This is the interval-accumulated view of the queue mix: in a
        saturated FIFO queue it converges to the same composition as
        :meth:`queue_snapshot`, but it is far less noisy on the short
        sampling windows of a scaled-down simulation, so LBICA's
        characterizer consumes this (with the instantaneous snapshot as a
        fallback when the window is empty).  The counts are the queue's
        own lifetime ``stats.by_tag`` minus its copy at the window start,
        in the queue's tag order; tags with no new op are left out, so an
        idle window is an empty, falsy ``Counter``.
        """
        device = self._devices.get(device_name)
        if device is None:
            raise KeyError(f"device {device_name!r} is not traced")
        by_tag = device.queue.stats.by_tag
        start = self._window_starts[device_name]
        counts: Counter = Counter()
        for tag, total in by_tag.items():
            delta = total - start.get(tag, 0)
            if delta > 0:
                counts[tag] = delta
        self._window_starts[device_name] = by_tag.copy()
        return counts

    def queue_mix(self, device_name: str) -> dict[str, float]:
        """The snapshot as fractions (e.g. ``{"R": 0.44, "P": 0.51, ...}``).

        Returns an all-zero mix when the queue is empty.
        """
        counts = self.queue_snapshot(device_name)
        total = sum(counts.values())
        mix = {tag.value: 0.0 for tag in OpTag}
        if total:
            for tag, count in counts.items():
                mix[tag.value] = count / total
        return mix

    def events_for(
        self, device_name: str | None = None, action: str | None = None
    ) -> Iterable[TraceRecord]:
        """Filtered view over the buffered records."""
        for rec in self.records:
            if device_name is not None and rec.device != device_name:
                continue
            if action is not None and rec.action != action:
                continue
            yield rec

    def counts_by_tag(self, device_name: str | None = None) -> Counter:
        """Lifetime (buffered) Q-event counts per tag."""
        counts: Counter = Counter()
        for rec in self.events_for(device_name, action="Q"):
            counts[rec.tag] += 1
        return counts

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlkTracer(devices={sorted(self._devices)}, "
            f"records={len(self.records)}, dropped={self.dropped})"
        )
