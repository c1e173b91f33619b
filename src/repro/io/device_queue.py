"""FIFO device queue state: pending ops, in-flight count, occupancy windows.

The queue is the central observable of the paper: Eq. 1 computes queue time
as ``queue_size × device_latency``, Fig. 3 characterizes workloads by the
*type mix* of in-queue requests, and both LBICA (Group 3) and SIB shed load
by removing requests from the **tail** of the SSD queue.

:class:`DeviceQueue` holds that state.  The device that owns it,
:class:`~repro.devices.base.StorageDevice`, is the only code that moves an
op through it: ``submit`` enqueues (back-merging contiguous same-direction
ops with the tail, like the block layer's elevator, up to
``max_merge_blocks``), ``_start`` moves one op to in-flight and
``_complete`` retires it, each updating the counters and the occupancy
integral as it goes.  An op that finds the device idle (nothing pending,
a free slot, dispatch not paused) is started by ``submit`` itself and
never enters ``pending``; queued ops are started by ``_dispatch``, which
a completion or the end of a pause runs.  The queue itself answers:

- :meth:`window_stats` / :meth:`reset_window` — time-weighted average and
  per-window maximum queue depth, which is what our iostat substrate
  samples;
- :meth:`snapshot_tags` — the R/W/P/E composition of the pending ops (our
  blktrace substrate);
- :meth:`steal_tail` — remove stealable ops from the tail subject to a
  caller-supplied filter, returning them for redirection to another device
  (:meth:`CacheController.bypass_tail
  <repro.cache.controller.CacheController.bypass_tail>` does both).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.io.request import DeviceOp

__all__ = ["DeviceQueue", "QueueStats"]


@dataclass(slots=True)
class QueueStats:
    """Lifetime counters for a device queue."""

    enqueued: int = 0
    dispatched: int = 0
    completed: int = 0
    merged: int = 0
    stolen: int = 0
    #: Enqueued ops per :class:`~repro.io.request.OpTag`, merged ops
    #: included; a plain ``dict`` (tags appear at their first op), since
    #: it is bumped once per device op.
    by_tag: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """A plain-dict copy (for reports)."""
        return {
            "enqueued": self.enqueued,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "merged": self.merged,
            "stolen": self.stolen,
            "by_tag": dict(self.by_tag),
        }


class DeviceQueue:
    """A FIFO dispatch queue for one storage device.

    Args:
        name: Queue name (e.g. ``"ssd"``), used in traces and reports.
        max_merge_blocks: Upper bound on a merged op's size; ``0`` disables
            merging entirely.

    The queue distinguishes *pending* ops (still eligible for merging and
    stealing) from *in-flight* ops (dispatched to the device and
    uninterruptible); ``inflight`` counts the latter.
    """

    def __init__(self, name: str, max_merge_blocks: int = 32) -> None:
        self.name = name
        self.max_merge_blocks = max_merge_blocks
        self.pending: deque[DeviceOp] = deque()
        self.inflight = 0
        self.stats = QueueStats()
        # occupancy accounting
        self._last_change = 0.0
        self._area = 0.0  # integral of qsize over time
        self._window_max = 0
        self._window_start = 0.0

    # ------------------------------------------------------------------
    # Occupancy accounting
    # ------------------------------------------------------------------
    @property
    def qsize(self) -> int:
        """Pending + in-flight operations (iostat's ``avgqu-sz`` analog)."""
        return len(self.pending) + self.inflight

    def _account(self, now: float) -> None:
        if now > self._last_change:
            self._area += self.qsize * (now - self._last_change)
            self._last_change = now

    def window_stats(self, now: float) -> tuple[float, int]:
        """Return ``(avg_qsize, max_qsize)`` since the last reset.

        The average is time-weighted over the window; the max is the peak
        instantaneous depth.  Call :meth:`reset_window` afterwards to start
        a new sampling interval.
        """
        self._account(now)
        span = now - self._window_start
        avg = self._area / span if span > 0 else float(self.qsize)
        return avg, self._window_max

    def reset_window(self, now: float) -> None:
        """Start a new occupancy-sampling window at ``now``."""
        self._account(now)
        self._area = 0.0
        self._window_start = now
        self._last_change = now
        self._window_max = self.qsize

    # ------------------------------------------------------------------
    # Introspection used by blktrace / LBICA / SIB
    # ------------------------------------------------------------------
    def snapshot_tags(self) -> Counter:
        """R/W/P/E composition of pending ops (the paper's queue mix).

        Merged ops count once per absorbed op so the mix reflects the
        logical request population, not the merge topology.
        """
        counts: Counter = Counter()
        for op in self.pending:
            counts[op.tag] += 1 + len(op.merged)
        return counts

    def steal_tail(
        self,
        max_ops: int,
        now: float,
        predicate: Optional[Callable[[DeviceOp], bool]] = None,
    ) -> list[DeviceOp]:
        """Remove up to ``max_ops`` stealable ops from the tail.

        Walks from the tail toward the head, removing ops for which
        ``op.stealable`` and ``predicate(op)`` (if given) hold.  Ops that
        fail the filter are left in place and the walk continues past
        them, so a single unstealable op does not shield the rest of the
        tail.

        Returns:
            The stolen ops in tail-to-head order.  The caller owns them
            (typically re-issuing them against the disk subsystem).
        """
        if max_ops <= 0 or not self.pending:
            return []
        self._account(now)
        stolen: list[DeviceOp] = []
        kept: list[DeviceOp] = []
        while self.pending and len(stolen) < max_ops:
            op = self.pending.pop()
            if op.stealable and (predicate is None or predicate(op)):
                stolen.append(op)
            else:
                kept.append(op)
        while kept:
            self.pending.append(kept.pop())
        self.stats.stolen += len(stolen)
        return stolen

    def __len__(self) -> int:
        return self.qsize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceQueue({self.name!r}, pending={len(self.pending)}, "
            f"inflight={self.inflight})"
        )
