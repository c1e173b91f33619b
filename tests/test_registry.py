"""The registry core, and the three registries built on it."""

import pytest

from repro.devtools.simlint.registry import _RULES
from repro.registry import Registry
from repro.schemes.registry import _SCHEMES
from repro.trace.adapters import _ADAPTERS


class Thing:
    name = ""
    rank = 0


def _thing(name, rank=0):
    return type(name.upper(), (Thing,), {"name": name, "rank": rank})


def _things():
    return Registry(
        Thing,
        key="name",
        kind="toy thing",
        source="tests.test_registry",
        builtins={},
        order="rank",
    )


@pytest.mark.parametrize(
    "registry", [_SCHEMES, _ADAPTERS, _RULES], ids=lambda registry: registry.noun
)
def test_the_builtin_map_names_the_module_registering_each_key(registry):
    modules = set(registry.builtins.values())
    registered = {key: cls.__module__ for key, cls in registry.items()}
    assert {
        key: module for key, module in registered.items() if module in modules
    } == registry.builtins


def test_listings_sort_by_the_order_attribute_then_registration():
    things = _things()
    for name, rank in (("c", 1), ("a", 2), ("b", 1)):
        things.register(_thing(name, rank))
    assert things.keys() == ("c", "b", "a")


def test_messages_name_the_kind_the_key_and_the_source():
    things = _things()
    with pytest.raises(TypeError, match="^register_thing expects a Thing subclass"):
        things.register(object)
    with pytest.raises(ValueError, match="^THING: thing name must be a non-empty"):
        things.register(type("THING", (Thing,), {}))
    things.register(_thing("a"))
    with pytest.raises(ValueError, match="^toy thing 'a' is already registered"):
        things.register(_thing("a"))
    with pytest.raises(ValueError) as err:
        things.get("b")
    assert str(err.value) == (
        "unknown toy thing 'b'; registered things (tests.test_registry): a"
    )
