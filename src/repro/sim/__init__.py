"""Discrete-event simulation engine.

This package provides the timing substrate every other subsystem runs on:

- :mod:`repro.sim.engine` — the :class:`~repro.sim.engine.Simulator` event
  loop (a binary-heap calendar of ``(time, seq, fn, args)`` entries that
  fire in deterministic ``(time, seq)`` order).
- :mod:`repro.sim.rng` — named, seeded random streams so that every
  stochastic component (device jitter, workload arrivals, address patterns)
  is independently reproducible from one root seed.
- :mod:`repro.sim.fastdraw` — decodes a PCG64 stream's draws the way
  ``numpy.random.Generator`` would, for the workloads' arrival path.
- :mod:`repro.sim.summation` — float sums with the same bits on every
  Python version, for fingerprints and float totals.

Time is measured in **microseconds** (floats) throughout the project.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry

__all__ = ["Simulator", "RngRegistry"]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.engine": ("Simulator",),
        "repro.sim.rng": ("RngRegistry",),
    },
)
