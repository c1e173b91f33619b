"""Comparison schemes from the paper's evaluation.

- :mod:`repro.baselines.wb` — the plain write-back cache with no load
  balancing ("WB" in Figures 4–7).
- :mod:`repro.baselines.sib` — Selective I/O Bypass [Kim et al., IEEE TC
  2018], the state-of-the-art the paper compares against: a WT/WO cache
  that estimates per-request wait times and bypasses the costliest
  in-queue requests, paying a per-request selection overhead.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.baselines.sib import SibController
    from repro.baselines.wb import WbBaseline
    from repro.schemes.configs import SibConfig

__all__ = ["WbBaseline", "SibController", "SibConfig"]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.baselines.sib": ("SibController",),
        "repro.baselines.wb": ("WbBaseline",),
        "repro.schemes.configs": ("SibConfig",),
    },
)
