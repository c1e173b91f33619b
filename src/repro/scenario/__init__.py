"""The scenario layer: experiments as data.

- :mod:`repro.scenario.spec` — :class:`ScenarioSpec`, the declarative
  description of one experiment (scheme, workload or tenant list, system
  config overrides, fixed policy, horizon, sweep axes) with a strict
  dict/JSON round-trip and grid expansion;
- :mod:`repro.scenario.registry` — named, ready-to-run scenario library;
- :mod:`repro.scenario.fingerprint` — deterministic stats digests the
  goldens and the smoke job pin behavior with;
- :mod:`repro.scenario.smoke` — the ``python -m repro.scenario``
  validate-and-short-run CLI over scenario files.

Quickstart::

    from repro.scenario import ScenarioSpec

    spec = ScenarioSpec(name="web_sweep", workload="web", base="quick")
    for s in spec.sweep(scheme=["wb", "sib", "lbica"]):
        print(s.name, s.run().summary())
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.scenario.fingerprint import stats_fingerprint
    from repro.scenario.registry import (
        SCENARIOS,
        get_scenario,
        register_scenario,
        scenario_descriptions,
    )
    from repro.scenario.spec import (
        ScenarioError,
        ScenarioSpec,
        load_scenario,
        scenario_from_dict,
    )

__all__ = [
    "ScenarioSpec",
    "ScenarioError",
    "load_scenario",
    "scenario_from_dict",
    "stats_fingerprint",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_descriptions",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.scenario.fingerprint": ("stats_fingerprint",),
        "repro.scenario.registry": (
            "SCENARIOS",
            "get_scenario",
            "register_scenario",
            "scenario_descriptions",
        ),
        "repro.scenario.spec": (
            "ScenarioError",
            "ScenarioSpec",
            "load_scenario",
            "scenario_from_dict",
        ),
    },
)
