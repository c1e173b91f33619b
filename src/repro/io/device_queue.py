"""FIFO device queues with merging, occupancy accounting, and tail stealing.

The queue is the central observable of the paper: Eq. 1 computes queue time
as ``queue_size × device_latency``, Fig. 3 characterizes workloads by the
*type mix* of in-queue requests, and both LBICA (Group 3) and SIB shed load
by removing requests from the **tail** of the SSD queue.

:class:`DeviceQueue` therefore provides, beyond plain FIFO push/pop:

- **back-merging** of contiguous same-direction ops (like the block
  layer's elevator), bounded by ``max_merge_blocks``;
- **occupancy statistics** — time-weighted average and per-window maximum
  queue depth, which is what our iostat substrate samples;
- :meth:`snapshot_tags` — the R/W/P/E composition of everything currently
  queued or in service (our blktrace substrate);
- :meth:`steal_tail` — remove stealable ops from the tail subject to a
  caller-supplied filter, returning them for redirection to another device.
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
    by_tag: Counter = field(default_factory=Counter)

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
    uninterruptible).
    """

    def __init__(self, name: str, max_merge_blocks: int = 32) -> None:
        self.name = name
        self.max_merge_blocks = max_merge_blocks
        self.pending: deque[DeviceOp] = deque()
        self.inflight: set[int] = set()
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
        return len(self.pending) + len(self.inflight)

    def _account(self, now: float) -> None:
        if now > self._last_change:
            self._area += self.qsize * (now - self._last_change)
            self._last_change = now

    def _bump_window(self) -> None:
        if self.qsize > self._window_max:
            self._window_max = self.qsize

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
    # Core queue operations
    # ------------------------------------------------------------------
    def push(self, op: DeviceOp, now: float) -> bool:
        """Enqueue ``op``; returns ``True`` if it was merged away.

        A back-merge is attempted against the current tail only (like the
        block layer's last-merge hint): same direction, same tag,
        contiguous LBA, and within ``max_merge_blocks``.
        """
        # push/pop_next/complete run once per device op; the occupancy
        # integral is inlined (same arithmetic as _account) to avoid a
        # method call plus property chain per transition.
        pending = self.pending
        inflight = self.inflight
        last = self._last_change
        if now > last:
            self._area += (len(pending) + len(inflight)) * (now - last)
            self._last_change = now
        op.enqueue_time = now
        stats = self.stats
        stats.enqueued += 1
        stats.by_tag[op.tag] += 1
        max_merge = self.max_merge_blocks
        if max_merge and pending:
            tail = pending[-1]
            if tail.can_merge_back(op, max_merge):
                tail.absorb(op)
                stats.merged += 1
                return True
        pending.append(op)
        qsize = len(pending) + len(inflight)
        if qsize > self._window_max:
            self._window_max = qsize
        return False

    def pop_next(self, now: float) -> Optional[DeviceOp]:
        """Move the head pending op to in-flight and return it."""
        pending = self.pending
        if not pending:
            return None
        last = self._last_change
        if now > last:
            self._area += (len(pending) + len(self.inflight)) * (now - last)
            self._last_change = now
        op = pending.popleft()
        op.dispatch_time = now
        self.inflight.add(op.op_id)
        self.stats.dispatched += 1
        return op

    def complete(self, op: DeviceOp, now: float) -> None:
        """Retire an in-flight op."""
        last = self._last_change
        if now > last:
            self._area += (len(self.pending) + len(self.inflight)) * (now - last)
            self._last_change = now
        self.inflight.discard(op.op_id)
        op.complete_time = now
        self.stats.completed += 1

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

    def estimated_wait(self, per_op_latency: float) -> list[tuple[DeviceOp, float]]:
        """SIB-style wait-time estimate for every pending op.

        Position ``i`` in the queue waits approximately
        ``(i + 1) × per_op_latency``.
        """
        return [
            (op, (i + 1) * per_op_latency) for i, op in enumerate(self.pending)
        ]

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
            f"inflight={len(self.inflight)})"
        )
