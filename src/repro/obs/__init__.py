"""Runtime observability: metrics hub, lifecycle spans, live telemetry.

Everything here is **opt-in** (``SystemConfig.obs.enabled``, or a
scenario spec's ``obs:`` block) and **zero-overhead when disabled**: a
default config wires no observers, installs no hooks, and runs the exact
event sequence of a build without this package.  See
``docs/ARCHITECTURE.md`` ("Observability layer") for the contract.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.obs.config import ObsConfig
    from repro.obs.hub import Histogram, MetricsHub, strip_wall
    from repro.obs.runtime import RunTelemetry
    from repro.obs.spans import TRACE_REQUIRED_FIELDS, SpanTracer

__all__ = [
    "ObsConfig",
    "Histogram",
    "MetricsHub",
    "strip_wall",
    "RunTelemetry",
    "SpanTracer",
    "TRACE_REQUIRED_FIELDS",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.obs.config": ("ObsConfig",),
        "repro.obs.hub": ("Histogram", "MetricsHub", "strip_wall"),
        "repro.obs.runtime": ("RunTelemetry",),
        "repro.obs.spans": ("TRACE_REQUIRED_FIELDS", "SpanTracer"),
    },
)
