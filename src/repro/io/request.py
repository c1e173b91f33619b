"""Application requests and device operations.

The paper distinguishes two levels of I/O:

* **Application requests** (:class:`Request`) — what the workload submits:
  a read or write of ``nblocks`` 4-KiB blocks starting at ``lba``.
* **Device operations** (:class:`DeviceOp`) — what actually lands in the
  SSD/HDD queues after the cache controller's routing decision.  Each op
  carries one of the paper's four queue tags (:class:`OpTag`): ``R``
  (application read served by the device), ``W`` (application write), ``P``
  (promotion of a missed block into the cache), ``E`` (eviction /
  write-back traffic).

A request completes when all of its *synchronous* device ops complete;
asynchronous ops (promotions, background evictions) are fire-and-forget
from the application's point of view but still occupy queue slots — which
is exactly the load LBICA is designed to shed.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Optional

__all__ = ["OpTag", "Request", "DeviceOp", "BLOCK_BYTES"]

#: Fixed cache/request block size in bytes (EnhanceIO default block size).
BLOCK_BYTES = 4096

_req_ids = itertools.count()
_op_ids = itertools.count()

#: Shared placeholder for ops that never absorbed a merge partner.
_NO_MERGED: tuple = ()


class OpTag(str, Enum):
    """In-queue request types from the paper (Fig. 1 / Section III-B)."""

    READ = "R"  #: application read served by this device
    WRITE = "W"  #: application write served by this device
    PROMOTE = "P"  #: cache fill of a missed block (SSD write)
    EVICT = "E"  #: eviction traffic (SSD read of victim / HDD write-back)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Request:
    """An application-level I/O request.

    Attributes:
        req_id: Unique id (monotonically increasing).
        arrival: Submission time (µs).
        lba: First 4-KiB block address.
        nblocks: Number of consecutive blocks.
        is_write: Direction.
        complete_time: Completion time (µs), or ``-1.0`` while in flight.
        bypassed: Whether a load balancer redirected (part of) this request
            to the disk subsystem.
        served_by: Device names that served synchronous parts of it.
        tenant_id: Originating VM / tenant (``0`` for single-tenant runs).
            Multi-tenant workloads stamp this so the cache controller and
            monitors can break accounting down per VM.
    """

    __slots__ = (
        "req_id",
        "arrival",
        "lba",
        "nblocks",
        "is_write",
        "complete_time",
        "bypassed",
        "served_by",
        "tenant_id",
        "_outstanding",
    )

    def __init__(
        self,
        arrival: float,
        lba: int,
        nblocks: int,
        is_write: bool,
        tenant_id: int = 0,
    ) -> None:
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        if lba < 0:
            raise ValueError("lba must be non-negative")
        if tenant_id < 0:
            raise ValueError("tenant_id must be non-negative")
        self.req_id = next(_req_ids)
        self.tenant_id = tenant_id
        self.arrival = arrival
        self.lba = lba
        self.nblocks = nblocks
        self.is_write = is_write
        self.complete_time = -1.0
        self.bypassed = False
        self.served_by: set[str] = set()
        self._outstanding = 0

    # -- completion accounting ----------------------------------------
    def add_wait(self, n: int = 1) -> None:
        """Register ``n`` synchronous device ops this request waits on."""
        self._outstanding += n

    @property
    def done(self) -> bool:
        """Whether the request has completed."""
        return self.complete_time >= 0.0

    @property
    def latency(self) -> float:
        """End-to-end latency (µs); raises if not yet complete."""
        if not self.done:
            raise RuntimeError(f"request {self.req_id} not complete")
        return self.complete_time - self.arrival

    @property
    def end_lba(self) -> int:
        """One past the last block touched."""
        return self.lba + self.nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"Request(#{self.req_id} {kind} lba={self.lba}+{self.nblocks} "
            f"t={self.arrival:.1f})"
        )


class DeviceOp:
    """A single operation in a device queue.

    Attributes:
        op_id: Unique id.
        lba: First block address.
        nblocks: Block count (grows if other ops are merged into this one).
        is_write: Direction *at the device* (an ``E``-tagged op is a read
            on the SSD side and a write on the HDD side).
        tag: The paper's queue tag (R/W/P/E).
        request: Originating application request, if any (``P``/``E``
            traffic generated by the cache has ``request=None`` once
            detached from the app's completion).
        sync: Whether the originating request waits on this op.
        stealable: Whether a load balancer may remove this op from the
            queue tail and redirect it (promotions are cancellable; evict
            reads of dirty data are not).
    """

    __slots__ = (
        "op_id",
        "lba",
        "nblocks",
        "is_write",
        "tag",
        "request",
        "sync",
        "stealable",
        "enqueue_time",
        "dispatch_time",
        "complete_time",
        "on_complete",
        "merged",
    )

    def __init__(
        self,
        lba: int,
        nblocks: int,
        is_write: bool,
        tag: OpTag,
        request: Optional[Request] = None,
        sync: bool = False,
        stealable: bool = True,
        on_complete: Optional[Callable[["DeviceOp"], None]] = None,
    ) -> None:
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        self.op_id = next(_op_ids)
        self.lba = lba
        self.nblocks = nblocks
        self.is_write = is_write
        self.tag = tag
        self.request = request
        self.sync = sync
        self.stealable = stealable
        self.enqueue_time = -1.0
        self.dispatch_time = -1.0
        self.complete_time = -1.0
        self.on_complete = on_complete
        # Merging is rare relative to op creation; sharing one immutable
        # empty tuple until the first absorb avoids a list allocation on
        # every op (absorb swaps in a real list on demand).
        self.merged: tuple | list = _NO_MERGED

    @property
    def end_lba(self) -> int:
        """One past the last block touched."""
        return self.lba + self.nblocks

    @property
    def queue_time(self) -> float:
        """Time spent waiting in the queue before dispatch (µs)."""
        if self.dispatch_time < 0 or self.enqueue_time < 0:
            raise RuntimeError(f"op {self.op_id} not dispatched yet")
        return self.dispatch_time - self.enqueue_time

    @property
    def service_latency(self) -> float:
        """Total enqueue-to-completion latency (µs)."""
        if self.complete_time < 0:
            raise RuntimeError(f"op {self.op_id} not complete")
        return self.complete_time - self.enqueue_time

    def absorb(self, other: "DeviceOp") -> None:
        """Back-merge ``other`` into this op (completion is chained)."""
        self.nblocks += other.nblocks
        if type(self.merged) is tuple:
            self.merged = [other]
        else:
            self.merged.append(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "w" if self.is_write else "r"
        return (
            f"DeviceOp(#{self.op_id} {self.tag.value}/{kind} "
            f"lba={self.lba}+{self.nblocks})"
        )
