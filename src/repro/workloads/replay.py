"""Trace replay: feed captured traces back through the stack.

A :class:`ReplayWorkload` takes :class:`~repro.trace.records.TraceRecord`
streams (parsed from any registered format via
:func:`repro.trace.parser.iter_trace`, or reshaped through
:mod:`repro.trace.operators`) and re-submits the *application*
arrivals — ``Q`` records tagged ``R`` or ``W`` — at their original
timestamps.  ``P``/``E`` records are skipped and counted in
``stats.skipped``: they were cache-generated and the replayed cache will
regenerate its own.

Every input replays one way: records are pulled in chunks of
:data:`CHUNK_RECORDS` arrivals, each chunk scheduled when the previous
chunk's last arrival fires, so the calendar holds one chunk, never the
whole trace.  A generator or an operator pipeline streams in constant
memory and must be time-sorted at chunk granularity (real traces are).
A list (any :class:`~typing.Sequence`) is filtered and stably sorted by
time up front, so it may arrive in any order and knows its duration.
Only trace operators (``time_compress``) change timestamps.

Each arrival is one :meth:`~repro.sim.engine.Simulator.schedule_at`
entry at its absolute trace time.  The times stay absolute rather than
delays from *now* because ``now + (t - now)`` does not always round
back to ``t``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.io.request import OpTag, Request
from repro.trace.operators import interleave
from repro.trace.records import TraceRecord
from repro.workloads.base import WorkloadStats

__all__ = ["ReplayWorkload", "CHUNK_RECORDS"]

#: Arrivals pulled and scheduled per chunk: big enough to amortize
#: scheduling, small enough that a chunk is invisible in peak RSS.
CHUNK_RECORDS = 4096


def _is_application(rec: TraceRecord) -> bool:
    return rec.action == "Q" and rec.tag in (OpTag.READ, OpTag.WRITE)


class ReplayWorkload:
    """Replays application arrivals from a trace.

    Carries a real :class:`~repro.workloads.base.WorkloadStats` (every
    emitted arrival counts as ``generated``; replay never throttles;
    dropped non-application records count as ``skipped``), so
    ``RunResult.workload_stats`` reports replay runs like any scripted
    workload instead of falling back to zeros.

    Args:
        records: Parsed trace records.  A :class:`~typing.Sequence`
            (list/tuple) may be in any order: it is filtered and sorted
            at construction.  Any other iterable (a generator from
            ``iter_trace`` or an operator pipeline) is pulled lazily and
            must be time-sorted at chunk granularity.
        streams: Alternative to ``records``: several time-sorted record
            streams, interleaved so stream *i* replays as
            ``tenant_id=i``.  Exactly one of ``records`` / ``streams``
            must be given.
        duration_us: Declared trace duration.  A lazy source cannot know
            its last timestamp up front, so runs without an explicit
            horizon need this (or the trace must fit one chunk); a
            sequence computes it.
        name: Workload name reported in run results.
    """

    def __init__(
        self,
        records: Optional[Iterable[TraceRecord]] = None,
        *,
        streams: Optional[Sequence[Iterable[TraceRecord]]] = None,
        duration_us: Optional[float] = None,
        name: str = "replay",
    ) -> None:
        if duration_us is not None and duration_us < 0:
            raise ValueError("duration_us must be non-negative")
        if (records is None) == (streams is None):
            raise ValueError("pass exactly one of records= or streams=")
        self.name = name
        self.stats = WorkloadStats()
        self._explicit_duration = duration_us
        self._known_duration: Optional[float] = None
        self._sim = None
        self._submit: Optional[Callable[[Request], None]] = None
        self._floor = 0.0
        self._last_time: Optional[float] = None  # max time pulled so far
        self._exhausted = False
        self._source: Iterator[tuple[TraceRecord, int]]

        if streams is not None:
            self._source = interleave([self._filtered(stream) for stream in streams])
            return
        assert records is not None
        if isinstance(records, Sequence):
            app = sorted(self._filtered(records), key=attrgetter("time"))
            self._known_duration = app[-1].time if app else 0.0
            self._source = ((rec, 0) for rec in app)
        else:
            self._source = ((rec, 0) for rec in self._filtered(records))

    def _filtered(self, records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        """Drop (and count) non-application records, lazily."""
        for rec in records:
            if _is_application(rec):
                yield rec
            else:
                self.stats.skipped += 1

    @property
    def submitted(self) -> int:
        """Arrivals emitted so far (alias of ``stats.generated``)."""
        return self.stats.generated

    @property
    def duration_us(self) -> float:
        """Timestamp of the last arrival.

        A sequence input computes this at construction (0 when empty).
        A lazy source knows it only once exhausted (traces that fit one
        chunk are exhausted at bind); otherwise pass ``duration_us=`` at
        construction or run with an explicit horizon.
        """
        if self._explicit_duration is not None:
            return self._explicit_duration
        if self._known_duration is not None:
            return self._known_duration
        raise ValueError(
            "streaming replay duration is unknown until the trace is "
            "exhausted; pass duration_us= to ReplayWorkload (or the "
            "trace: spec) or run with an explicit horizon (until_us)"
        )

    def bind(self, sim, submit: Callable[[Request], None], rng=None) -> None:
        """Schedule the first chunk (``rng`` unused).

        Each chunk's last arrival schedules the next chunk.  Arrivals
        before the bind time fire at it.
        """
        self._sim = sim
        self._submit = submit
        self._floor = sim.now
        self._schedule_chunk()

    def _schedule_chunk(self) -> None:
        """Pull, order-check, and schedule the next chunk.

        The pull happens *before* any scheduling, so a parse error
        surfacing mid-chunk (malformed trace line) schedules nothing
        from that chunk — the chunk is atomic.
        """
        sim = self._sim
        source = self._source
        assert sim is not None
        chunk: list[tuple[TraceRecord, int]] = []
        for _ in range(CHUNK_RECORDS):
            try:
                chunk.append(next(source))
            except StopIteration:
                self._exhausted = True
                break
        if not chunk:
            self._finish()
            return
        chunk.sort(key=lambda item: item[0].time)  # stable: ties keep order
        first = chunk[0][0].time
        last = chunk[-1][0].time
        if self._last_time is not None and first < self._last_time:
            raise ValueError(
                f"replay source is not time-sorted across a chunk boundary "
                f"(t={first} after t={self._last_time}); a lazy source "
                f"needs chunk-sorted input — pass a list to replay "
                f"unsorted records"
            )
        self._last_time = last
        floor = self._floor
        emit = self._emit
        for rec, tid in chunk[:-1]:
            sim.schedule_at(max(rec.time, floor), emit, rec, tid)
        rec, tid = chunk[-1]
        sim.schedule_at(max(last, floor), self._emit_last, rec, tid)

    def _finish(self) -> None:
        self.stats.finished = True
        if self._known_duration is None:
            self._known_duration = (
                self._last_time if self._last_time is not None else 0.0
            )

    def _emit(self, rec: TraceRecord, tenant_id: int) -> None:
        sim, submit = self._sim, self._submit
        assert sim is not None and submit is not None
        request = Request(
            sim.now, rec.lba, rec.nblocks, rec.is_write, tenant_id=tenant_id
        )
        stats = self.stats
        stats.generated += 1
        if rec.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        submit(request)

    def _emit_last(self, rec: TraceRecord, tenant_id: int) -> None:
        """Last arrival of a chunk: emit, then refill or finish."""
        self._emit(rec, tenant_id)
        if self._exhausted:
            self._finish()
        else:
            self._schedule_chunk()

    def on_request_complete(self, request: Request) -> None:
        """No backpressure during replay (timestamps are authoritative)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "exhausted" if self._exhausted else "live"
        return f"ReplayWorkload({self.stats.generated} emitted, {state})"
