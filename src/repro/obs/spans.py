"""Request-lifecycle span recording and Chrome trace-event export.

:class:`SpanTracer` holds completed spans ("X" phase events in the
Chrome trace-event format) in a bounded buffer.  Every span is emitted
*retroactively at completion*: a request span from the controller's
completion hook (a :class:`~repro.io.request.Request` keeps its
``arrival`` and ``complete_time``), a device op's queue-wait and service
spans from the device's ``complete`` observer, using the queue and
issue times that :class:`~repro.obs.runtime.RunTelemetry`'s own
transition observers noted.  Requests and ops carry no span-only
fields, and nothing is added to the hot submit/dispatch paths unless
tracing is on.

Export targets Perfetto / ``chrome://tracing``: simulated microseconds
map directly onto the format's ``ts``/``dur`` microsecond fields, so a
run opens with its real time axis.  Processes ("pids") separate the
request view from each device; tenant ids become request-track thread
ids, so a consolidated run shows one lane per VM.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

__all__ = ["SpanTracer", "TRACE_REQUIRED_FIELDS"]

#: Fields every exported trace event must carry (the schema tests and
#: the CI obs-smoke job validate these).
TRACE_REQUIRED_FIELDS = ("ph", "ts", "pid", "tid", "name")


class SpanTracer:
    """A bounded buffer of completed spans with Chrome trace export.

    Args:
        capacity: Maximum retained spans; further emits are counted in
            :attr:`dropped` instead of stored (trace truncation is
            visible, never silent).
    """

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: list[dict[str, Any]] = []
        self.dropped = 0
        # pid 1 is reserved for the request view; devices register after.
        self._processes: dict[str, int] = {"requests": 1}
        self._threads: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------
    # Track registry
    # ------------------------------------------------------------------
    def register_process(self, name: str) -> int:
        """The pid for a named track group, allocating on first use."""
        pid = self._processes.get(name)
        if pid is None:
            pid = len(self._processes) + 1
            self._processes[name] = pid
        return pid

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        """Attach a display name to one (pid, tid) track."""
        self._threads[(pid, tid)] = name

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one completed span ("X" phase, microsecond units)."""
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        event: dict[str, Any] = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict[str, Any]:
        """The recorded spans as a Chrome trace-event document.

        Metadata ("M" phase) events name every registered process and
        thread so Perfetto shows ``requests`` / ``ssd`` / ``hdd`` track
        groups and per-tenant lanes instead of bare numbers.
        """
        meta: list[dict[str, Any]] = []
        for name, pid in sorted(self._processes.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "ts": 0.0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for (pid, tid), name in sorted(self._threads.items()):
            meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "ts": 0.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def chrome_trace_json(self) -> str:
        """:meth:`chrome_trace` serialized (the ``trace.json`` payload)."""
        return json.dumps(self.chrome_trace(), sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanTracer(events={len(self.events)}, dropped={self.dropped})"
