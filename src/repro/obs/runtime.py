"""The run-telemetry orchestrator: wires the obs layer into one system.

:class:`RunTelemetry` is constructed by
:class:`~repro.experiments.system.ExperimentSystem` **only when**
``config.obs.enabled`` — a disabled config never builds this object, so
the disabled path costs exactly one attribute check per run.

Design rules (all enforced here, not in the instrumented layers):

- **No extra simulated events.**  The metrics snapshot rides the
  existing :class:`~repro.trace.iostat.IostatMonitor` tick via its
  sample-hook list; span emission rides the devices' transition
  observers and the controller's completion hooks.  The event
  sequence — and therefore ``events_processed`` and every stats
  fingerprint — is identical with telemetry on or off.
- **Spans are sourced here.**  Requests and device ops carry no
  span-only fields: the times an op was queued and issued, and the
  devices that served a request, are recorded by this object's own
  ``queue``/``issue`` observers, only while tracing is on.
- **Pull, don't push.**  Per-interval state (queue depths, dirty
  ratio, tenant occupancy, SLO compliance) is read from the layers'
  ``telemetry_snapshot()`` helpers at tick time; nothing in the
  per-event hot paths writes to the hub.
- **Wall-clock values are quarantined** under ``"wall"`` keys so the
  deterministic part of the series diffs clean across runs (see
  :func:`~repro.obs.hub.strip_wall`).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.obs.config import ObsConfig
from repro.obs.hub import MetricsHub
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem
    from repro.io.request import DeviceOp, Request
    from repro.trace.iostat import IntervalSample

__all__ = ["RunTelemetry"]

#: The request view's fixed pid in exported traces.
_REQUESTS_PID = 1


class RunTelemetry:
    """Per-run telemetry: metrics series, lifecycle spans, heartbeat.

    With ``obs.trace`` on, this object is where span data is kept: its
    own device transition observers note when each op was queued and
    issued and which devices served each request, since requests and
    ops carry no span-only fields.  A bypassed request also counts the
    HDD, as the balancer's redirect does.

    Args:
        system: The fully wired :class:`ExperimentSystem` to observe.
        obs: The (already validated) observability switches.
    """

    def __init__(self, system: "ExperimentSystem", obs: ObsConfig) -> None:
        self.system = system
        self.obs = obs
        self.hub: Optional[MetricsHub] = MetricsHub() if obs.metrics else None
        self.spans: Optional[SpanTracer] = (
            SpanTracer(obs.trace_capacity) if obs.trace else None
        )
        self._last_events = 0
        self._t0 = 0.0
        self._last_wall = 0.0
        self._last_beat = 0.0
        self._horizon_us: Optional[float] = None
        self._wall_run_s = 0.0
        self._slo_seen = 0
        # Span inputs, filled only while tracing: when each waiting op
        # was queued, when each op in flight was queued and issued, and
        # the devices each in-flight request's ops were queued at.
        self._queued: dict[DeviceOp, float] = {}
        self._issued: dict[DeviceOp, tuple[float, float]] = {}
        self._served: dict[Request, set[str]] = {}

        system.monitor.add_sample_hook(self._on_sample)
        if self.spans is not None:
            for device in (system.ssd, system.hdd):
                for transition, observe in self._device_observers(device):
                    device.add_transition_observer(transition, observe)
        system.controller.add_completion_hook(self._on_request_complete)

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon_us: Optional[float]) -> None:
        """Stamp the wall-clock origin (called just before ``sim.run``)."""
        self._t0 = time.perf_counter()
        self._last_wall = self._t0
        self._last_beat = self._t0
        self._horizon_us = horizon_us

    def finish(self) -> None:
        """Record the total run wall time (called after ``sim.run``)."""
        self._wall_run_s = time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # Span sources (registered only when tracing is on)
    # ------------------------------------------------------------------
    def _device_observers(
        self, device: Any
    ) -> "tuple[tuple[str, Callable[[DeviceOp], None]], ...]":
        """``(transition, observer)`` pairs that emit both device spans.

        The ``queue`` observer notes when the op was queued and at which
        device its request is served; ``issue`` notes when it started.
        The ``complete`` observer then emits the queue wait and the
        service span.  An op stolen from one queue and re-queued at the
        other (a bypass) waits from its second queueing, as its second
        ``queue`` note overwrites the first.
        """
        spans = self.spans
        assert spans is not None
        name = device.name
        pid = spans.register_process(name)
        spans.name_thread(pid, 0, "queue wait")
        spans.name_thread(pid, 1, "service")
        sim = self.system.sim
        queued = self._queued
        issued = self._issued
        served = self._served

        def on_queue(op: "DeviceOp") -> None:
            queued[op] = sim.now
            request = op.request
            if request is not None:
                devices = served.get(request)
                if devices is None:
                    served[request] = {name}
                else:
                    devices.add(name)

        def on_issue(op: "DeviceOp") -> None:
            issued[op] = (queued.pop(op), sim.now)

        def on_complete(op: "DeviceOp") -> None:
            tag = str(op.tag)
            enqueue, dispatch = issued.pop(op)
            spans.emit(f"{tag} wait", "queue", enqueue, dispatch - enqueue, pid, 0)
            spans.emit(
                tag,
                "service",
                dispatch,
                sim.now - dispatch,
                pid,
                1,
                {"lba": op.lba, "nblocks": op.nblocks},
            )

        return (("queue", on_queue), ("issue", on_issue), ("complete", on_complete))

    def _on_request_complete(self, request: "Request") -> None:
        latency = request.complete_time - request.arrival
        hub = self.hub
        if hub is not None:
            hub.observe("request_latency_us", latency)
        spans = self.spans
        if spans is not None:
            tid = request.tenant_id
            spans.name_thread(_REQUESTS_PID, tid, f"tenant {tid}")
            devices = self._served.pop(request)
            if request.bypassed:
                # redirect_to_disk counts a bypassed request as served by
                # the disk.  Most ops it moves are re-queued there, but a
                # write-through write's SSD leg is dropped instead.
                devices.add(self.system.hdd.name)
            served = sorted(devices)
            spans.emit(
                "write" if request.is_write else "read",
                "request",
                request.arrival,
                latency,
                _REQUESTS_PID,
                tid,
                {
                    "tenant": tid,
                    "hit": (
                        not request.is_write
                        and not request.bypassed
                        and served == ["ssd"]
                    ),
                    "bypassed": request.bypassed,
                    "served_by": served,
                    "lba": request.lba,
                    "nblocks": request.nblocks,
                },
            )

    # ------------------------------------------------------------------
    # Metrics tick (rides the iostat monitor's existing interval event)
    # ------------------------------------------------------------------
    def _on_sample(self, sample: "IntervalSample") -> None:
        system = self.system
        if self.spans is not None:
            self._forget_dequeued_ops()
        events_total = system.sim.events_processed
        events = events_total - self._last_events
        self._last_events = events_total

        wall_now = time.perf_counter()
        wall_s = wall_now - self._t0
        interval_s = wall_now - self._last_wall
        self._last_wall = wall_now

        hub = self.hub
        if hub is not None:
            store = system.store
            cache = system.controller.telemetry_snapshot()
            dirty_ratio = (
                store.dirty_count / system.config.cache_blocks
                if system.config.cache_blocks
                else 0.0
            )
            tenants: dict[str, dict[str, Any]] = {
                str(tid): {"hit_ratio": ts["read_hit_ratio"]}
                for tid, ts in cache["tenants"].items()
            }
            allocator = system.controller.allocator
            alloc_snapshot = getattr(allocator, "telemetry_snapshot", None)
            if alloc_snapshot is not None:
                alloc = alloc_snapshot()
                for tid, quota in alloc["quotas"].items():
                    entry = tenants.setdefault(str(tid), {})
                    entry["quota"] = quota
                    entry["occupancy"] = alloc["occupancy"].get(tid, 0)
            slo: dict[str, Any] = {}
            if system.slo_monitor is not None:
                slo = system.slo_monitor.telemetry_snapshot()
            row: dict[str, Any] = {
                "interval": sample.index,
                "t_us": sample.t_end,
                "events": events,
                "events_total": events_total,
                "completed": sample.completed,
                "queues": {
                    "ssd": system.ssd.telemetry_snapshot(),
                    "hdd": system.hdd.telemetry_snapshot(),
                },
                "cache": {
                    "read_hit_ratio": cache["read_hit_ratio"],
                    "dirty_ratio": dirty_ratio,
                    "dirty_blocks": cache["dirty_blocks"],
                    "occupied_blocks": cache["occupied_blocks"],
                    "policy": cache["policy"],
                },
                "tenants": tenants,
                "slo": slo,
                "wall": {
                    "s": round(wall_s, 6),
                    "interval_s": round(interval_s, 6),
                    "events_per_sec": (
                        round(events / interval_s) if interval_s > 0 else 0
                    ),
                },
            }
            hub.add_snapshot(row)
            hub.inc("intervals")
            hub.set_gauge("dirty_ratio", dirty_ratio)
            hub.set_gauge("read_hit_ratio", cache["read_hit_ratio"])
            hub.observe("interval_events", float(events))

        if self.obs.heartbeat_s > 0 and (
            wall_now - self._last_beat >= self.obs.heartbeat_s
        ):
            self._last_beat = wall_now
            self._heartbeat(sample, events_total, wall_s)

    def _forget_dequeued_ops(self) -> None:
        """Keep the ``queue`` notes of the ops still waiting in a queue.

        An op merged into another, or stolen from the SSD queue and then
        cancelled, never completes on its own, so nothing else would
        drop its note.  Pruned once per interval, the notes stay bounded
        however long a traced run is.
        """
        queued = self._queued
        system = self.system
        waiting = {
            op: queued[op]
            for device in (system.ssd, system.hdd)
            for op in device.queue.pending
        }
        queued.clear()
        queued.update(waiting)

    def _heartbeat(
        self, sample: "IntervalSample", events_total: int, wall_s: float
    ) -> None:
        """One live progress line on stderr (stdout stays parseable)."""
        sim_s = sample.t_end / 1e6
        parts = [f"sim {sim_s:.2f}s"]
        horizon = self._horizon_us
        if horizon:
            frac = min(1.0, sample.t_end / horizon)
            eta = wall_s * (1.0 - frac) / frac if frac > 0 else float("inf")
            parts[0] += f"/{horizon / 1e6:.2f}s ({frac:.0%})"
            parts.append(f"eta {eta:.1f}s")
        parts.append(f"wall {wall_s:.1f}s")
        rate = events_total / wall_s if wall_s > 0 else 0.0
        parts.append(f"{rate:,.0f} ev/s")
        hit = self.system.controller.stats.read_hit_ratio
        parts.append(f"hit {hit:.1%}")
        print(f"[obs] {' | '.join(parts)}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Results and export
    # ------------------------------------------------------------------
    def result_section(self) -> dict[str, Any]:
        """The ``RunResult.telemetry`` payload (plain data, JSON-ready)."""
        section: dict[str, Any] = {
            "wall": {"run_s": round(self._wall_run_s, 6)},
        }
        if self.hub is not None:
            section["metrics"] = {
                "series": [dict(row) for row in self.hub.series],
                **self.hub.summary(),
            }
        if self.spans is not None:
            section["trace"] = {
                "events": len(self.spans.events),
                "dropped": self.spans.dropped,
                "capacity": self.spans.capacity,
            }
        return section

    def metrics_jsonl(self) -> str:
        """The per-interval series as JSONL (empty without metrics)."""
        return self.hub.jsonl() if self.hub is not None else ""

    def write_metrics_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the metrics series; returns the written path."""
        out = Path(path)
        out.write_text(self.metrics_jsonl(), encoding="utf-8")
        return out

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace-event document; returns the path.

        Raises:
            ValueError: If the run recorded no spans (``obs.trace`` off).
        """
        if self.spans is None:
            raise ValueError("tracing was not enabled for this run (obs.trace)")
        out = Path(path)
        out.write_text(self.spans.chrome_trace_json(), encoding="utf-8")
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunTelemetry(metrics={self.hub is not None}, "
            f"trace={self.spans is not None})"
        )
