"""Block-layer substrate: requests, device operations, and device queues.

This package models the slice of the Linux block layer that LBICA observes
and manipulates:

- :mod:`repro.io.request` — application-level :class:`~repro.io.request.Request`
  objects and the device-level :class:`~repro.io.request.DeviceOp` operations
  they expand into, tagged with the paper's four in-queue types
  (R: application read, W: application write, P: cache promote,
  E: cache evict).
- :mod:`repro.io.device_queue` — a FIFO dispatch queue with contiguous
  request merging (the block layer's back/front merge), occupancy
  accounting for iostat-style sampling, and *tail stealing*, the primitive
  both LBICA's Group-3 tail bypass and SIB's selective bypass are built on.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.io.device_queue import DeviceQueue, QueueStats
    from repro.io.request import DeviceOp, OpTag, Request

__all__ = ["Request", "DeviceOp", "OpTag", "DeviceQueue", "QueueStats"]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.io.device_queue": ("DeviceQueue", "QueueStats"),
        "repro.io.request": ("DeviceOp", "OpTag", "Request"),
    },
)
