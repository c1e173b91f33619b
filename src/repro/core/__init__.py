"""LBICA — the paper's contribution.

The three procedures of Fig. 2, plus the controller that runs them
periodically:

1. :mod:`repro.core.bottleneck` — burst detection via Eq. 1
   (``cache_Qtime > disk_Qtime``).
2. :mod:`repro.core.characterization` — classify the running workload
   from the R/W/P/E mix of the SSD queue (Groups 1–4 of Section III-B).
3. :mod:`repro.core.policy_table` + :mod:`repro.core.balancer` — assign
   the group's write policy (Section III-C) and, for Group 3, bypass the
   over-threshold tail of the SSD queue to the disk subsystem.
4. :mod:`repro.core.lbica` — :class:`~repro.core.lbica.LbicaController`,
   the periodic detect → characterize → balance loop, with a decision log
   that regenerates Fig. 6.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.balancer import TailBypassBalancer
    from repro.core.bottleneck import BottleneckDetector, BottleneckReading
    from repro.core.characterization import (
        CharacterizerConfig,
        WorkloadCharacterizer,
        WorkloadGroup,
    )
    from repro.core.lbica import LbicaController, LbicaDecision
    from repro.core.policy_table import PolicyAction, default_policy_table
    from repro.schemes.configs import LbicaConfig

__all__ = [
    "BottleneckDetector",
    "BottleneckReading",
    "WorkloadCharacterizer",
    "WorkloadGroup",
    "CharacterizerConfig",
    "PolicyAction",
    "default_policy_table",
    "TailBypassBalancer",
    "LbicaController",
    "LbicaConfig",
    "LbicaDecision",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.balancer": ("TailBypassBalancer",),
        "repro.core.bottleneck": ("BottleneckDetector", "BottleneckReading"),
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
