"""The discrete-event simulation loop.

The :class:`Simulator` is a classic calendar queue built on :mod:`heapq`.
Components schedule callbacks at absolute or relative times; the loop pops
them in ``(time, seq)`` order and advances the clock.  There is no implicit
concurrency — everything that happens "at the same time" is serialized in
scheduling order, which keeps runs deterministic.

Hot-path design notes (this loop executes once per simulated I/O event,
so its constant factors dominate whole-run wall clock):

- The heap stores ``(time, seq, fn, args, event)`` tuples, not
  :class:`Event` objects.  Tuple comparison happens in C; heap sifts
  never call back into Python (``Event.__lt__`` is kept only for API
  compatibility), and dispatch reads the callback out of the entry
  without touching the event object.
- Callbacks are plain ``fn(*args)`` invocations — schedule bound methods
  plus positional arguments rather than closures, so the per-event cost
  is one call with no cell-variable indirection and no per-event closure
  allocation.
- :meth:`schedule_sorted_at` batch-schedules pre-sorted arrival scripts
  (e.g. trace replay): on an empty calendar a sorted list *is* a valid
  heap, so the whole batch is appended in O(n) with no sift churn.
- :meth:`schedule_sorted_calls` is streaming trace replay's variant:
  the whole batch shares ONE cancellable :class:`Event`, so a chunk of
  trace arrivals costs one allocation and can be revoked wholesale with
  a single ``cancel()``.
- :meth:`schedule_calls` batch-inserts a dispatch round's completions;
  :meth:`run` drains runs of equal-timestamp entries without re-entering
  the loop header.  Neither changes observable order: entries still pop
  strictly by ``(time, seq)``, so fingerprints are bit-identical.

Example:
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable

from repro.sim.events import Event

__all__ = ["Simulator", "SimulationError"]

#: One calendar entry: ``(time, seq, fn, args, event)``.
_HeapEntry = tuple[float, int, Callable[..., Any], "tuple[Any, ...]", Event]


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. scheduling into the past)."""


def _never_fires() -> None:  # pragma: no cover - sentinel, never dispatched
    raise AssertionError("the schedule_call sentinel event must never fire")


#: Shared sentinel referenced by :meth:`Simulator.schedule_call` entries.
#: It is never cancelled, so the run loop's ``event.cancelled`` check
#: stays branch-predictable and no per-call Event allocation is needed.
#: Only its ``cancelled`` flag is ever read — dispatch takes the callback
#: from the heap entry, never from the sentinel.
_NO_EVENT = Event(0.0, -1, _never_fires, ())


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: Current simulation time in microseconds.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Calendar entries: ``(time, seq, fn, args, event)``.  Tuples
        #: compare in C on ``(time, seq)`` (seq is unique, so the
        #: callback fields are never compared), and the run loop invokes
        #: ``fn(*args)`` straight off the entry with no attribute loads.
        self._heap: list[_HeapEntry] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: When ``True``, :meth:`run` updates ``events_processed`` after
        #: every dispatch instead of batching the count in a local, so
        #: mid-run callbacks (the obs layer's interval snapshots) read
        #: exact live values.  Pop order is identical either way.
        self.live_counters: bool = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now.

        Args:
            delay: Non-negative offset from the current time.
            fn: Callback to invoke.
            *args: Positional arguments for the callback.

        Returns:
            The scheduled :class:`Event` (may be cancelled later).

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} µs into the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def schedule_call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` µs from now, non-cancellably.

        The allocation-free fast path for the dominant schedule→pop→run
        cycle: device completions, arrival chains, and periodic ticks are
        never cancelled, so they share one sentinel event instead of
        allocating a fresh :class:`Event` per call.  Use :meth:`schedule`
        when the caller needs a cancellation handle.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} µs into the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args, _NO_EVENT))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` (µs).

        Raises:
            SimulationError: If ``time`` is before the current time.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def schedule_sorted_at(
        self, items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...]]]
    ) -> list[Event]:
        """Batch-schedule pre-sorted ``(time, fn, args)`` triples.

        The fast path for open-loop arrival scripts (trace replay,
        pre-computed schedules): when the calendar is empty, a
        time-sorted batch is appended directly — a sorted array satisfies
        the heap invariant — so the whole script costs O(n) instead of
        O(n log n) and causes no sift churn.  With events already
        pending, each item falls back to a normal ``heappush``.

        Args:
            items: ``(time, fn, args)`` triples in non-decreasing time
                order, all at or after the current clock.

        Returns:
            The scheduled events, in input order.

        Raises:
            SimulationError: If an item is before the current time or the
                batch is not sorted.  The batch is atomic: on error,
                nothing is scheduled and no sequence numbers are consumed.
        """
        seq = self._seq
        prev = self.now
        entries: list[_HeapEntry] = []
        events: list[Event] = []
        for time, fn, args in items:
            if time < prev:
                raise SimulationError(
                    f"batch not sorted or in the past at t={time} "
                    f"(previous t={prev}, now t={self.now})"
                )
            prev = time
            event = Event(time, seq, fn, args)
            entries.append((time, seq, fn, args, event))
            events.append(event)
            seq += 1
        # Commit only after the whole batch validated.
        self._seq = seq
        heap = self._heap
        if not heap:  # empty calendar: sorted extend keeps the invariant
            heap.extend(entries)
        else:
            for entry in entries:
                heappush(heap, entry)
        return events

    def schedule_sorted_calls(
        self, items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...]]]
    ) -> Event:
        """Batch-schedule pre-sorted triples behind one shared event.

        Streaming trace replay's fast path: a chunk of trace arrivals
        is inserted in one call, and the single returned
        :class:`Event` controls the *whole batch* — cancelling it lazily
        deletes every entry still in the calendar (entries already
        dispatched are unaffected).  Entries consume consecutive
        sequence numbers in input order, exactly as the equivalent
        ``schedule_call`` loop would.

        Args:
            items: ``(time, fn, args)`` triples in non-decreasing time
                order, all at or after the current clock.

        Returns:
            The shared event.  Its ``time``/``fn`` fields describe the
            first entry; only its cancellation flag governs the batch.
            An empty batch returns an inert event.

        Raises:
            SimulationError: If an item is before the current time or
                the batch is not sorted.  The batch is atomic: on error
                nothing is scheduled and no sequence numbers are used.
        """
        seq = self._seq
        prev = self.now
        event: Event | None = None
        entries: list[_HeapEntry] = []
        for time, fn, args in items:
            if time < prev:
                raise SimulationError(
                    f"batch not sorted or in the past at t={time} "
                    f"(previous t={prev}, now t={self.now})"
                )
            prev = time
            if event is None:
                event = Event(time, seq, fn, args)
            entries.append((time, seq, fn, args, event))
            seq += 1
        if event is None:  # empty batch: nothing to schedule or cancel
            return Event(self.now, -1, _never_fires, ())
        self._seq = seq
        heap = self._heap
        if not heap:  # empty calendar: sorted extend keeps the invariant
            heap.extend(entries)
        elif len(entries) * 4 > len(heap):
            # Large batch vs. calendar: one O(n) heapify beats n
            # O(log n) sifts.  Pop order depends only on the (time, seq)
            # keys, not the heap's internal layout, so results are
            # unchanged.
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        return event

    def schedule_calls(
        self, items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...]]]
    ) -> None:
        """Batch-schedule ``(delay, fn, args)`` triples, non-cancellably.

        One dispatch round's completions enter the calendar in a single
        call: sequence numbers are assigned in input order (identical to
        the equivalent ``schedule_call`` loop), every entry shares the
        no-event sentinel, and the batch is atomic — a negative delay
        schedules nothing.

        Raises:
            SimulationError: If any delay is negative.
        """
        now = self.now
        seq = self._seq
        entries: list[_HeapEntry] = []
        for delay, fn, args in items:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay} µs into the past")
            entries.append((now + delay, seq, fn, args, _NO_EVENT))
            seq += 1
        self._seq = seq
        heap = self._heap
        for entry in entries:
            heappush(heap, entry)

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a pending event (lazy deletion; O(1))."""
        event.cancel()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events until the heap is empty or ``until`` is reached.

        Args:
            until: If given, stop once the next event would fire after this
                time, and fast-forward the clock to exactly ``until``.
        """
        if self.live_counters:
            self._run_live(until)
            return
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        # The dispatch loop allocates heavily (heap entries, device ops,
        # requests) and almost everything dies young by refcount alone;
        # generational collection passes during the loop are pure
        # overhead (~10% of wall time).  Pause the cyclic collector and
        # restore it on exit — the isenabled() guard makes nested runs
        # and gc-disabled callers behave correctly.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The dispatch count accumulates in a local and is flushed in the
        # ``finally`` below (so exceptions and stop() still leave it
        # exact).  Every reader — fingerprints, reports, tests — consumes
        # it after run() returns; nothing in src nests run()/step().
        processed = self._events_processed
        try:
            if until is None:
                # Dominant dispatch cycle: pop, advance, call.  The
                # counter stays a live attribute so callbacks (and
                # nested step() calls) always see the true count.  After
                # each dispatch, entries tied at the same timestamp
                # (batched arrivals, completion bursts, simultaneous
                # ticks) drain in an inner run without re-entering the
                # outer header: the clock store and until-comparison are
                # skipped, while (time, seq) pop order — and therefore
                # every fingerprint — is untouched.  stop() is honored
                # between tied events exactly as between untied ones.
                while heap and not self._stopped:
                    time, _, fn, args, event = pop(heap)
                    if event.cancelled:
                        continue
                    self.now = time
                    processed += 1
                    fn(*args)
                    while heap and heap[0][0] == time and not self._stopped:  # simlint: ignore[SL003] exact ties only: the drain must not absorb nearby timestamps
                        _, _, fn, args, event = pop(heap)
                        if event.cancelled:
                            continue
                        processed += 1
                        fn(*args)
            else:
                while heap and not self._stopped:
                    time = heap[0][0]
                    if time > until:
                        break
                    _, _, fn, args, event = pop(heap)
                    if event.cancelled:
                        continue
                    self.now = time
                    processed += 1
                    fn(*args)
                    # Tied entries cannot exceed `until`: they fire at
                    # the already-admitted timestamp.
                    while heap and heap[0][0] == time and not self._stopped:  # simlint: ignore[SL003] exact ties only: the drain must not absorb nearby timestamps
                        _, _, fn, args, event = pop(heap)
                        if event.cancelled:
                            continue
                        processed += 1
                        fn(*args)
        finally:
            self._events_processed = processed
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def _run_live(self, until: float | None) -> None:
        """The :meth:`run` loop with per-event counter updates.

        Taken when :attr:`live_counters` is set (the obs layer needs
        mid-run ``events_processed`` reads from interval callbacks).
        Pop order, cancellation handling, the GC pause, and the
        ``until`` fast-forward match :meth:`run` exactly — the same
        event sequence executes, so fingerprints are identical; only
        the counter bookkeeping differs (a live attribute store per
        dispatch instead of one flush on return).
        """
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and not self._stopped:
                time = heap[0][0]
                if until is not None and time > until:
                    break
                _, _, fn, args, event = pop(heap)
                if event.cancelled:
                    continue
                self.now = time
                self._events_processed += 1
                fn(*args)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event.

        Mirrors :meth:`run`'s bookkeeping: a prior :meth:`stop` request is
        cleared (as ``run`` does on entry), ``_running`` is held while the
        callback executes, and cancelled events are skipped without
        counting.

        Returns:
            ``True`` if an event was processed, ``False`` if the heap is
            empty.
        """
        self._running = True
        self._stopped = False
        heap = self._heap
        try:
            while heap:
                time, _, fn, args, event = heappop(heap)
                if event.cancelled:
                    continue
                self.now = time
                self._events_processed += 1
                fn(*args)
                return True
            return False
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the loop is currently executing an event."""
        return self._running

    @property
    def stop_requested(self) -> bool:
        """Whether a :meth:`stop` request is pending (cleared on run/step)."""
        return self._stopped

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def peek_time(self) -> float | None:
        """Firing time of the next active event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][4].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}µs, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
