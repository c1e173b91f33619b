"""The discrete-event simulation loop.

The :class:`Simulator` is a classic calendar queue built on :mod:`heapq`.
Components schedule callbacks at absolute or relative times; the loop pops
them in ``(time, seq)`` order and advances the clock.  There is no implicit
concurrency — everything that happens "at the same time" is serialized in
scheduling order, which keeps runs deterministic.

Hot-path design notes (this loop executes once per simulated I/O event,
so its constant factors dominate whole-run wall clock):

- Each calendar entry is a ``(time, seq, fn, args)`` tuple.  Tuple
  comparison happens in C, so heap sifts never call back into Python,
  and dispatch reads the callback straight out of the entry.
- Callbacks are plain ``fn(*args)`` invocations — schedule bound methods
  plus positional arguments rather than closures, so the per-event cost
  is one call with no cell-variable indirection and no per-event closure
  allocation.
- Nothing on the calendar is ever revoked, so every entry that has left
  it has run: ``events_processed`` is the number of entries ever
  scheduled minus the number still pending, exact at any moment
  (including inside a callback) without a counter in the loop.
- :meth:`run` has one loop body.  After each dispatch it drains the
  entries tied at the same timestamp (batched arrivals, completion
  bursts, simultaneous ticks) without re-checking ``until`` or storing
  the clock; entries still pop strictly by ``(time, seq)``.

Example:
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable

__all__ = ["Simulator", "SimulationError"]

#: One calendar entry: ``(time, seq, fn, args)``.
_HeapEntry = tuple[float, int, Callable[..., Any], "tuple[Any, ...]"]


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. scheduling into the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: Current simulation time in microseconds.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Calendar entries: ``(time, seq, fn, args)``.  Tuples compare
        #: on ``(time, seq)``; seq is unique, so the callback fields are
        #: never compared.
        self._heap: list[_HeapEntry] = []
        #: Entries scheduled so far; also the next entry's seq.
        self._seq: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now.

        Args:
            delay: Non-negative offset from the current time.
            fn: Callback to invoke.
            *args: Positional arguments for the callback.

        Raises:
            SimulationError: If ``delay`` is negative or NaN.
        """
        # Written so NaN fails too: a NaN time on the heap breaks its order.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule with delay {delay} µs (must be >= 0)"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (µs).

        Raises:
            SimulationError: If ``time`` is before the current time, or NaN.
        """
        if not time >= self.now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events until the heap is empty or ``until`` is reached.

        Args:
            until: If given, stop once the next event would fire after this
                time, and fast-forward the clock to exactly ``until``.
        """
        heap = self._heap
        pop = heappop
        limit = inf if until is None else until
        while heap:
            time = heap[0][0]
            if time > limit:
                break
            _, _, fn, args = pop(heap)
            self.now = time
            fn(*args)
            # Tied entries cannot exceed `limit`: they fire at the
            # already-admitted timestamp.
            while heap and heap[0][0] == time:  # simlint: ignore[SL003] exact ties only: the drain must not absorb nearby timestamps
                _, _, fn, args = pop(heap)
                fn(*args)
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still in the heap."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._seq - len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}µs, pending={self.pending_events}, "
            f"processed={self.events_processed})"
        )
