"""LBICA — the paper's contribution.

The three procedures of Fig. 2, plus the controller that runs them
periodically:

1. :mod:`repro.core.bottleneck` — burst detection via Eq. 1
   (``cache_Qtime > disk_Qtime``, :func:`cache_is_bottleneck`), which the
   SIB baseline shares.
2. :mod:`repro.core.characterization` — classify the running workload
   from the R/W/P/E mix of the SSD queue (Groups 1–4 of Section III-B).
3. :mod:`repro.core.policy_table` — assign the group's write policy
   (Section III-C); for Group 3, :func:`tail_past_threshold` sizes the
   over-threshold tail of the SSD queue that
   :meth:`~repro.cache.controller.CacheController.bypass_tail` moves to
   the disk subsystem.
4. :mod:`repro.core.lbica` — :class:`~repro.core.lbica.LbicaController`,
   the periodic detect → characterize → balance loop, with a decision log
   that regenerates Fig. 6.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.bottleneck import cache_is_bottleneck, tail_past_threshold
    from repro.core.characterization import (
        CharacterizerConfig,
        WorkloadCharacterizer,
        WorkloadGroup,
    )
    from repro.core.lbica import LbicaController, LbicaDecision
    from repro.core.policy_table import PolicyAction, default_policy_table
    from repro.schemes.configs import LbicaConfig

__all__ = [
    "cache_is_bottleneck",
    "tail_past_threshold",
    "WorkloadCharacterizer",
    "WorkloadGroup",
    "CharacterizerConfig",
    "PolicyAction",
    "default_policy_table",
    "LbicaController",
    "LbicaConfig",
    "LbicaDecision",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.bottleneck": ("cache_is_bottleneck", "tail_past_threshold"),
        "repro.core.characterization": (
            "CharacterizerConfig",
            "WorkloadCharacterizer",
            "WorkloadGroup",
        ),
        "repro.core.lbica": ("LbicaController", "LbicaDecision"),
        "repro.core.policy_table": ("PolicyAction", "default_policy_table"),
        "repro.schemes.configs": ("LbicaConfig",),
    },
)
