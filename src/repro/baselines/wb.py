"""The WB baseline: a write-back cache with no load balancing.

This is the paper's first comparison point: EnhanceIO in plain WB mode.
All traffic is absorbed by the cache to maximize hit ratio; nothing
watches the queues, so during bursts the SSD queue grows without bound
(modulo application backpressure) and the cache becomes the system's
bottleneck — the pathology Figures 4 and 7 quantify.

There is nothing to *do* for this scheme; the class exists so the
experiment runner can treat every registered scheme uniformly
(``cls(config).attach(system)``, ``start()``, inspect after the run).
"""

from __future__ import annotations

from repro.schemes.base import Scheme
from repro.schemes.registry import register_scheme

__all__ = ["WbBaseline"]


class WbBaseline(Scheme):
    """A no-op load balancer (plain WB cache)."""

    name = "wb"
    description = "Unbalanced write-back cache (EnhanceIO WB mode, no balancer)."
    config_cls = None  # genuinely config-less, stated explicitly (SL005)
    paper_baseline = True
    registry_order = 0
    ticks_per_interval = 0  # no periodic activity


register_scheme(WbBaseline)
