"""Storage device models.

The paper's testbed pairs a 1 TB Samsung 863a SATA SSD (cache tier) with a
4 TB Seagate 7.2K SAS HDD (disk subsystem).  We replace the hardware with
parameterised service-time models:

- :mod:`repro.devices.ssd` — flat read latency, write latency that climbs
  toward a *write cliff* under sustained write pressure (SSD garbage
  collection), optional internal parallelism.
- :mod:`repro.devices.hdd` — seek + rotational latency + transfer for
  random access, near-free sequential streaks, and a volatile write cache
  that absorbs bursts of writes cheaply until it fills (drive write-back
  caching).  The write cache is what makes bypassed writes genuinely
  cheaper on the disk than in a saturated SSD queue — the effect LBICA's
  RO policy and tail bypass exploit.
- :mod:`repro.devices.base` — the :class:`~repro.devices.base.StorageDevice`
  server loop gluing a model to a :class:`~repro.io.device_queue.DeviceQueue`
  on the simulator.
- :mod:`repro.devices.presets` — parameter sets shaped after the paper's
  hardware.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devices.base import DeviceStats, StorageDevice
    from repro.devices.hdd import HddModel
    from repro.devices.presets import samsung_863a_like, seagate_7200_like
    from repro.devices.ssd import SsdModel

__all__ = [
    "StorageDevice",
    "DeviceStats",
    "SsdModel",
    "HddModel",
    "samsung_863a_like",
    "seagate_7200_like",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.devices.base": ("DeviceStats", "StorageDevice"),
        "repro.devices.hdd": ("HddModel",),
        "repro.devices.presets": ("samsung_863a_like", "seagate_7200_like"),
        "repro.devices.ssd": ("SsdModel",),
    },
)
