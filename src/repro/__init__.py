"""repro — a full reproduction of *LBICA: A Load Balancer for I/O Cache
Architectures* (Ahmadian, Salkhordeh, Asadi — DATE 2019).

The package rebuilds the paper's entire stack as a trace-driven
discrete-event simulation:

- :mod:`repro.sim` — the event engine and seeded random streams;
- :mod:`repro.io` — requests, R/W/P/E-tagged device operations, queues;
- :mod:`repro.devices` — SSD (write-cliff) and HDD (write-cache) models;
- :mod:`repro.cache` — an EnhanceIO-like cache with WB/WT/RO/WO policies;
- :mod:`repro.trace` — iostat / blktrace substrates (Eq. 1, queue mixes);
- :mod:`repro.workloads` — TPC-C / mail / web burst workloads and the
  four synthetic characterization groups;
- :mod:`repro.core` — **LBICA** itself (detect → characterize → balance);
- :mod:`repro.baselines` — the WB and SIB comparison schemes;
- :mod:`repro.schemes` — the pluggable scheme layer: the
  :class:`~repro.schemes.Scheme` ABC and registry (``wb`` / ``sib`` /
  ``lbica`` plus the ``partition`` and ``dynshare`` capacity
  allocators; register your own with
  :func:`~repro.schemes.register_scheme`);
- :mod:`repro.registry` — the one class registry behind schemes,
  trace adapters and simlint rules;
- :mod:`repro.analysis` — metrics, series, ASCII plots, reports;
- :mod:`repro.experiments` — one harness per paper figure (4, 5, 6, 7)
  plus headline numbers and ablations;
- :mod:`repro.scenario` — declarative :class:`ScenarioSpec` scenarios
  (JSON in, bit-identical experiment out), the scenario registry, and
  the smoke runner;
- :mod:`repro.store` — the content-addressed on-disk run store
  (atomic JSON artifacts keyed by scenario + config + schema version);
- :mod:`repro.campaign` — resumable campaigns over the store
  (``repro campaign run|status|report|diff``).

Quickstart::

    from repro import ExperimentSystem, paper_config

    system = ExperimentSystem.build("tpcc", "lbica", paper_config())
    result = system.run()
    print(result.summary())

or, the same run as data::

    from repro import ScenarioSpec

    result = ScenarioSpec(name="demo", workload="tpcc", scheme="lbica").run()

Every package namespace exports lazily: ``import repro`` loads no
submodule, and each exported name is imported the first time it is read
(see :func:`_lazy_exports`).
"""

import importlib
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.cache.write_policy import WritePolicy
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec, load_campaign
    from repro.config import SystemConfig, paper_config, quick_config
    from repro.core.characterization import WorkloadCharacterizer, WorkloadGroup
    from repro.core.lbica import LbicaController
    from repro.experiments.system import ExperimentSystem, RunResult
    from repro.scenario.spec import ScenarioSpec, load_scenario
    from repro.schemes.base import Scheme
    from repro.schemes.configs import LbicaConfig
    from repro.schemes.registry import register_scheme, scheme_names
    from repro.store.artifact import RunArtifact
    from repro.store.run_store import RunKey, RunStore

__all__ = [
    "SystemConfig",
    "paper_config",
    "quick_config",
    "WritePolicy",
    "WorkloadGroup",
    "WorkloadCharacterizer",
    "LbicaController",
    "LbicaConfig",
    "ExperimentSystem",
    "RunResult",
    "Scheme",
    "register_scheme",
    "scheme_names",
    "ScenarioSpec",
    "load_scenario",
    "RunStore",
    "RunKey",
    "RunArtifact",
    "CampaignSpec",
    "load_campaign",
    "run_campaign",
]

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazily exporting package.

    Every package ``__init__`` in :mod:`repro` names its exports and the
    modules that define them, and imports none of those modules.  An
    export is imported the first time it is read (PEP 562) and then
    stored on the package, so later reads are plain attribute lookups.
    A run therefore loads only the modules it executes.  Each
    ``__init__`` also imports its exports under ``TYPE_CHECKING``, which
    keeps the real types visible to mypy and ruff::

        from typing import TYPE_CHECKING

        from repro import _lazy_exports

        if TYPE_CHECKING:
            from repro.sim.engine import Simulator

        __all__ = ["Simulator"]

        __getattr__, __dir__ = _lazy_exports(
            __name__, {"repro.sim.engine": ("Simulator",)}
        )

    Args:
        package: The package's ``__name__``.
        exports: Defining module -> the names the package exports from it.

    Returns:
        ``(__getattr__, __dir__)``, to bind at the package's top level.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cache.write_policy": ("WritePolicy",),
        "repro.campaign.runner": ("run_campaign",),
        "repro.campaign.spec": ("CampaignSpec", "load_campaign"),
        "repro.config": ("SystemConfig", "paper_config", "quick_config"),
        "repro.core.characterization": ("WorkloadCharacterizer", "WorkloadGroup"),
        "repro.core.lbica": ("LbicaController",),
        "repro.experiments.system": ("ExperimentSystem", "RunResult"),
        "repro.scenario.spec": ("ScenarioSpec", "load_scenario"),
        "repro.schemes.base": ("Scheme",),
        "repro.schemes.configs": ("LbicaConfig",),
        "repro.schemes.registry": ("register_scheme", "scheme_names"),
        "repro.store.artifact": ("RunArtifact",),
        "repro.store.run_store": ("RunKey", "RunStore"),
    },
)
