"""Fuzz the scenario validation gate.

Every drawn scenario must either raise :class:`ScenarioError` from
``ScenarioSpec.from_dict`` / ``expand`` or build and run a 3-interval
horizon: nothing that passes validation may fail later.  Draws cover
every ``system.*`` leaf of :class:`~repro.config.SystemConfig` and sweeps
over them, mixing small valid values (so a valid draw runs in well
under a second) with edge values: 0, -1, NaN, ±inf, wrong types,
associativities that do not divide the cache, and unknown names.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import quick_config
from repro.scenario import ScenarioError, ScenarioSpec
from repro.schemes.registry import scheme_names


def _leaves(obj, prefix: tuple[str, ...] = ()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,), value


#: ``(path, default)`` for every ``system.*`` leaf.
LEAVES = list(_leaves(quick_config()))

EDGE_VALUES = [0, -1, math.nan, math.inf, -math.inf, "x", None, True, [1], {"k": 1}]

#: Valid values that are not derived from the default, per leaf.
SPECIAL_VALUES = {
    ("cache_blocks",): [64, 512, 12, 100],
    ("cache_associativity",): [1, 2, 3, 16, 64],
    ("replacement",): ["fifo", "clock", "lfu", "bogus"],
    ("partition", "variant"): ["proportional", "bogus"],
    ("partition", "weights"): [[1.0, 2.0], [0.5], [0.0], [-1.0], [math.nan], "x", 3],
    ("lbica", "revert_after_quiet"): [1, 3, 1.5, "x"],
}


def _valid_values(path: tuple[str, ...], default) -> list:
    """Small values near the default, so a valid draw stays cheap."""
    if isinstance(default, bool):
        values = [True, False]
    elif isinstance(default, int):
        values = [default, default + 1, max(1, default // 2)]
    elif isinstance(default, float):
        values = [default, default * 0.5, default * 2.0]
    else:
        values = [default]
    return values + SPECIAL_VALUES.get(path, [])


def _leaf_value(path: tuple[str, ...], default):
    return st.one_of(
        st.sampled_from(_valid_values(path, default)), st.sampled_from(EDGE_VALUES)
    )


@st.composite
def scenarios(draw) -> dict:
    system: dict = {}
    for path, default in draw(
        st.lists(st.sampled_from(LEAVES), max_size=4, unique_by=lambda leaf: leaf[0])
    ):
        node = system
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_leaf_value(path, default))
    sweep: dict = {}
    if draw(st.booleans()):
        path, default = draw(st.sampled_from(LEAVES))
        values = draw(st.lists(_leaf_value(path, default), min_size=1, max_size=2))
        sweep["system." + ".".join(path)] = values
    return {
        "name": "fuzz",
        "base": "quick",
        "workload": draw(st.sampled_from(["web", "tpcc", "consolidated3"])),
        "scheme": draw(st.sampled_from(scheme_names())),
        "system": system,
        "sweep": sweep,
        "horizon_intervals": 3,
    }


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_validated_scenarios_build_and_run(payload):
    try:
        grid = ScenarioSpec.from_dict(payload).expand()
    except ScenarioError:
        return
    for spec in grid:
        result = spec.run()
        assert result.events_processed > 0
