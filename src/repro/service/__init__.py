"""Tenant service layer: churn schedules and SLO tracking.

See :mod:`repro.service.churn` for mid-run tenant arrivals, departures,
and migrations (with cache-share reclamation and rewarm) and
:mod:`repro.service.slo` for per-tenant service-level objectives and
the periodic compliance monitor.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.service.churn import (
        ChurnManager,
        ServiceWorkload,
        TenantEvent,
        TenantLifecycle,
        generate_lifecycles,
    )
    from repro.service.slo import ServiceError, SloMonitor, SloSample, SloTarget

__all__ = [
    "ChurnManager",
    "ServiceWorkload",
    "TenantEvent",
    "TenantLifecycle",
    "generate_lifecycles",
    "ServiceError",
    "SloMonitor",
    "SloSample",
    "SloTarget",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.service.churn": (
            "ChurnManager",
            "ServiceWorkload",
            "TenantEvent",
            "TenantLifecycle",
            "generate_lifecycles",
        ),
        "repro.service.slo": ("ServiceError", "SloMonitor", "SloSample", "SloTarget"),
    },
)
