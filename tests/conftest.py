"""Shared fixtures: simulators, devices, controllers, tiny systems."""

from __future__ import annotations

import builtins
import math

import pytest

from repro.cache.controller import CacheController
from repro.cache.store import CacheStore
from repro.cache.write_policy import WritePolicy
from repro.devices.base import StorageDevice
from repro.devices.hdd import HddConfig, HddModel
from repro.devices.ssd import SsdConfig, SsdModel
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def ssd(sim) -> StorageDevice:
    """A deterministic (jitter-free) SSD device."""
    model = SsdModel(SsdConfig(jitter_sigma=0.0))
    return StorageDevice(sim, "ssd", model, depth=1)


@pytest.fixture
def hdd(sim) -> StorageDevice:
    """A deterministic (jitter-free) HDD device."""
    model = HddModel(HddConfig(jitter_sigma=0.0))
    return StorageDevice(sim, "hdd", model, depth=1)


@pytest.fixture
def store() -> CacheStore:
    """A small 8-way cache store (64 blocks)."""
    return CacheStore(64, associativity=8, replacement="lru")


@pytest.fixture
def controller(sim, ssd, hdd, store) -> CacheController:
    """A WB cache controller over the deterministic devices."""
    return CacheController(sim, ssd, hdd, store, policy=WritePolicy.WB)


def drain(sim: Simulator) -> None:
    """Run the simulator until no events remain."""
    sim.run()


_interpreter_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it over ints and floats.

    Ints add exactly up to the first float; from there on, 3.12 adds
    floats with Neumaier's compensation (gh-100425) and adds the
    accumulated correction at the end.  Any other input goes to the
    running interpreter's ``sum``.
    """
    items = list(iterable)
    numbers = (int, float, bool)
    if type(start) not in numbers or any(type(x) not in numbers for x in items):
        return _interpreter_sum(items, start)
    total = start
    rest = iter(items)
    if type(total) is int:
        for x in rest:
            total = total + x
            if type(x) is float:
                break
        else:
            return total
    correction = 0.0
    for x in rest:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            correction += (total - t) + x
        else:
            correction += (x - t) + total
        total = t
    if correction and math.isfinite(correction):
        total += correction
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """Patch ``builtins.sum`` to Python 3.12's compensated sum for the test.

    Returns the emulation, so a test can also call it directly.
    """
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    return compensated_sum
