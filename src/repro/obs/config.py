"""Observability configuration: the opt-in switchboard.

:class:`ObsConfig` is the ``obs`` field of
:class:`~repro.config.SystemConfig` (and the ``obs:`` block of a
scenario spec).  Everything defaults to *off*: a default-constructed
config builds a system with zero telemetry wiring — no observers
registered, no hooks installed, no per-event work — so every committed
golden stays bit-identical.  Flipping ``enabled`` arms the
:class:`~repro.obs.runtime.RunTelemetry` orchestrator, which then honors
the finer-grained ``metrics`` / ``trace`` / ``heartbeat_s`` switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass
class ObsConfig:
    """Run-telemetry switches (all opt-in; the default is fully off).

    Attributes:
        enabled: Master switch.  ``False`` (the default) wires nothing —
            the run is bit-identical to a build without the obs layer.
        metrics: Collect the per-interval metrics series (events/s,
            queue depths, dirty ratio, tenant occupancy, SLO
            compliance) through the :class:`~repro.obs.hub.MetricsHub`.
        trace: Record request/device lifecycle spans for Chrome
            trace-event export (Perfetto / ``chrome://tracing``).
        trace_capacity: Span-buffer bound; spans past it are counted in
            ``dropped`` instead of retained (mirrors the blktrace ring).
        heartbeat_s: Print a live progress line to stderr every this
            many wall-clock seconds (``0`` disables the heartbeat).
    """

    enabled: bool = False
    metrics: bool = True
    trace: bool = False
    trace_capacity: int = 200_000
    heartbeat_s: float = 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.trace_capacity < 1:
            raise ValueError("obs.trace_capacity must be >= 1")
        if not math.isfinite(self.heartbeat_s):
            raise ValueError("obs.heartbeat_s must be finite")
        if self.heartbeat_s < 0:
            raise ValueError("obs.heartbeat_s must be non-negative")
        if self.enabled and not (self.metrics or self.trace):
            raise ValueError(
                "obs.enabled without obs.metrics or obs.trace records nothing"
            )
