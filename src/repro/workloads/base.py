"""The phase-scripted workload engine.

A :class:`Workload` is a list of :class:`PhaseSpec` entries, each lasting
a whole number of monitoring intervals and defining an arrival rate, a
read/write mix, address patterns, and request sizes.  Arrivals follow a
Poisson process (exponential inter-arrival times) subject to
**application backpressure**: at most ``max_outstanding`` requests may be
in flight, mirroring a real application's bounded I/O concurrency.
Backpressure is what keeps queue growth — and therefore simulated
latencies — finite during bursts while still saturating the device under
test.

Draw source
-----------
Each arrival is one event: ``_arrive`` draws the read/write coin, the
address and the gap to the next arrival, in that order, and re-arms
itself with ``Simulator.schedule``.  The golden fingerprints pin that exact
``numpy.random.Generator`` draw sequence.  :meth:`Workload.bind` picks
the object the draws come from, once.  When every phase is decodable (a
fixed request size and address patterns of the exact built-in types) it
is a persistent :class:`repro.sim.fastdraw.RawDraws` over the workload's
own PCG64 stream, which decodes the same draws from prefetched raw words
at a fraction of numpy's per-call cost.  Otherwise it is the
``Generator`` itself, which stays the reference the decoder is tested
against.  Both offer the same ``random`` / ``integers`` /
``exponential`` calls, so there is one arrival path.  The decoder reads
ahead of the draws it has served, so it assumes the workload owns its
stream exclusively, which is how :class:`~repro.sim.rng.RngRegistry` and
multi-tenant binding hand streams out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.io.request import Request
from repro.sim.fastdraw import RawDraws, replication_verified
from repro.workloads.access_patterns import (
    AddressPattern,
    HotColdPattern,
    MixPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)

__all__ = ["PhaseSpec", "Workload", "WorkloadStats"]

#: How far a size distribution's probabilities may sum from 1: the
#: tolerance ``Generator.choice`` applies to them at draw time.
_PROB_SUM_TOL = math.sqrt(sys.float_info.epsilon)


def _decodable(pattern: AddressPattern) -> bool:
    """Whether :class:`RawDraws` can serve ``pattern``'s draws.

    Exact-type checks on purpose: a subclass may override ``sample`` with
    draws the decoder does not know.
    """
    kind = type(pattern)
    if kind in (UniformPattern, ZipfPattern, SequentialPattern, HotColdPattern):
        return True
    if kind is MixPattern:
        return all(_decodable(p) for p in pattern._patterns)
    return False


@dataclass
class PhaseSpec:
    """One workload phase.

    Attributes:
        label: Human-readable phase name (shows up in experiment logs).
        n_intervals: Duration in monitoring intervals.
        rate_iops: Poisson arrival rate, requests per second.
        write_frac: Probability a request is a write.
        pattern_read: Address pattern for reads.
        pattern_write: Address pattern for writes (defaults to
            ``pattern_read``).
        size_blocks: Request size in 4-KiB blocks — either an int or a
            ``(choices, probabilities)`` pair.
        burst: Whether this phase is a scripted burst window (annotation
            only; the simulator discovers bursts through Eq. 1).
    """

    label: str
    n_intervals: int
    rate_iops: float
    write_frac: float
    pattern_read: AddressPattern
    pattern_write: Optional[AddressPattern] = None
    size_blocks: int | tuple[Sequence[int], Sequence[float]] = 1
    burst: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.n_intervals <= 0:
            raise ValueError(f"phase {self.label!r}: n_intervals must be positive")
        if not math.isfinite(self.rate_iops):
            raise ValueError(f"phase {self.label!r}: rate_iops must be finite")
        if self.rate_iops <= 0:
            raise ValueError(f"phase {self.label!r}: rate_iops must be positive")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ValueError(f"phase {self.label!r}: write_frac must be in [0, 1]")
        self._validate_size()

    def _validate_size(self) -> None:
        where = f"phase {self.label!r}: size_blocks"
        size = self.size_blocks
        if isinstance(size, int) and not isinstance(size, bool):
            if size < 1:
                raise ValueError(f"{where} must be at least 1, got {size}")
            return
        try:
            choices, probs = size
            choices, probs = list(choices), [float(p) for p in probs]
        except (TypeError, ValueError):
            raise ValueError(
                f"{where} must be an int or a (choices, probabilities) pair, "
                f"got {size!r}"
            ) from None
        if not choices or len(choices) != len(probs):
            raise ValueError(
                f"{where} has {len(choices)} choices and {len(probs)} probabilities"
            )
        for blocks in choices:
            if isinstance(blocks, bool) or not isinstance(blocks, Integral) or blocks < 1:
                raise ValueError(f"{where} choices must be integers >= 1, got {blocks!r}")
        if not all(p >= 0.0 for p in probs):
            raise ValueError(f"{where} probabilities must be non-negative")
        total = math.fsum(probs)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"{where} probabilities sum to {total}, not 1")

    @property
    def write_pattern(self) -> AddressPattern:
        """The effective write address pattern."""
        if self.pattern_write is not None:
            return self.pattern_write
        return self.pattern_read


@dataclass(slots=True)
class WorkloadStats:
    """Counters for one workload run."""

    generated: int = 0
    reads: int = 0
    writes: int = 0
    throttled: int = 0  #: arrivals deferred by backpressure
    skipped: int = 0  #: trace records dropped during replay (non-application events)
    finished: bool = False


class Workload:
    """A multi-phase request generator bound to a simulator.

    Args:
        name: Workload name (``tpcc`` / ``mail`` / ``web`` / ...).
        phases: Phase script (validated on construction).
        interval_us: Monitoring interval length — phases are expressed in
            these units so workload scripts line up with iostat samples.
        max_outstanding: Application concurrency bound (backpressure).
        warm_blocks: Block addresses to pre-load into the cache before the
            run — the paper assumes "the workload has passed its warm-up
            interval" (Section III-B footnote), so hot working sets start
            resident instead of being filled through the miss path.
        warm_dirty_blocks: Addresses pre-loaded *dirty* — write-back data
            accumulated before the observed window (a mail server's
            pending deliveries, a web server's session state).  Evicting
            these is what produces the ``E`` share of the paper's queue
            mixes.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[PhaseSpec],
        interval_us: float,
        max_outstanding: int = 256,
        warm_blocks: Sequence[int] = (),
        warm_dirty_blocks: Sequence[int] = (),
    ) -> None:
        if not phases:
            raise ValueError("at least one phase required")
        if not math.isfinite(interval_us):
            raise ValueError("interval_us must be finite")
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        for phase in phases:
            phase.validate()
        self.name = name
        self.phases = list(phases)
        self.interval_us = interval_us
        self.max_outstanding = max_outstanding
        self.warm_blocks = list(warm_blocks)
        self.warm_dirty_blocks = list(warm_dirty_blocks)
        self.stats = WorkloadStats()
        # phase boundaries in absolute µs
        self._bounds: list[float] = []
        t = 0.0
        for phase in self.phases:
            t += phase.n_intervals * interval_us
            self._bounds.append(t)
        self._phase_idx = 0
        self._outstanding = 0
        self._throttled = False
        self._sim = None
        self._submit: Optional[Callable[[Request], None]] = None
        #: What bind stamps on every request: the tenant id, and the
        #: offset of the tenant's LBA region.
        self._tenant_id = 0
        self._lba_offset = 0
        # Bound once: every arrival re-arms itself with this callback.
        self._arrive_cb = self._arrive
        #: The draw source bind picked (see the module docstring).
        self._draws: Any = None
        #: Per phase, what _arrive reads on every arrival: ``(write_frac,
        #: sample_read, sample_write, fixed size or None, mean_gap_us)``.
        self._derived: list[tuple] = []

    # ------------------------------------------------------------------
    @property
    def total_intervals(self) -> int:
        """Total scripted duration in monitoring intervals."""
        return sum(p.n_intervals for p in self.phases)

    @property
    def duration_us(self) -> float:
        """Total scripted duration in µs."""
        return self._bounds[-1]

    def phase_at(self, time_us: float) -> PhaseSpec:
        """The phase active at ``time_us`` (clamped to the last phase)."""
        idx = int(np.searchsorted(self._bounds, time_us, side="right"))
        return self.phases[min(idx, len(self.phases) - 1)]

    def shift(self, offset_us: float) -> None:
        """Delay the whole phase script by ``offset_us``.

        Used by multi-tenant composition to stagger VM start times: the
        phase boundaries are stored in absolute simulation time, so a
        tenant bound ``offset_us`` into the run must have its script
        pushed out by the same amount to keep phases aligned with its
        own arrival stream.
        """
        if offset_us < 0:
            raise ValueError("offset_us must be non-negative")
        self._bounds = [b + offset_us for b in self._bounds]

    def stop(self) -> None:
        """Truncate the phase script at the current time (tenant departure).

        Every phase boundary is clamped to *now*, so the next pending
        arrival event sees an expired script and is a no-op, and
        backpressure resumption stops rescheduling.  The boundaries stay
        monotonic and ``duration_us`` reflects the truncated script.
        Idempotent; stopping a never-bound workload truncates it to zero
        length.
        """
        now = self._sim.now if self._sim is not None else 0.0
        self._bounds = [min(b, now) for b in self._bounds]
        self.stats.finished = True

    def burst_intervals(self) -> list[int]:
        """Interval indices covered by scripted burst phases."""
        out: list[int] = []
        start = 0
        for phase in self.phases:
            if phase.burst:
                out.extend(range(start, start + phase.n_intervals))
            start += phase.n_intervals
        return out

    # ------------------------------------------------------------------
    # Binding to a simulator
    # ------------------------------------------------------------------
    def bind(
        self,
        sim,
        submit: Callable[[Request], None],
        rng: np.random.Generator,
        tenant_id: int = 0,
        lba_offset: int = 0,
    ) -> None:
        """Attach to a simulator and start generating arrivals.

        ``rng`` must be this workload's own stream: when every phase is
        decodable, a :class:`RawDraws` over its PCG64 bit generator
        serves the draws and reads ahead of them.  Every request is
        built with ``tenant_id`` and with its address shifted by
        ``lba_offset``: a multi-tenant composition binds each VM with
        its id and the start of its LBA region.
        """
        self._sim = sim
        self._submit = submit
        self._tenant_id = tenant_id
        self._lba_offset = lba_offset
        self._derived = [
            (
                phase.write_frac,
                phase.pattern_read.sample,
                phase.write_pattern.sample,
                phase.size_blocks if isinstance(phase.size_blocks, int) else None,
                1e6 / phase.rate_iops,
            )
            for phase in self.phases
        ]
        bit_gen = getattr(rng, "bit_generator", None)
        decodable = type(bit_gen) is np.random.PCG64 and all(
            isinstance(phase.size_blocks, int)
            and _decodable(phase.pattern_read)
            and _decodable(phase.write_pattern)
            for phase in self.phases
        )
        self._draws = RawDraws(bit_gen) if decodable and replication_verified() else rng
        sim.schedule(self._next_gap(), self._arrive_cb)

    def on_request_complete(self, request: Request) -> None:
        """Backpressure hook: wire to the cache controller's completion."""
        self._outstanding -= 1
        if self._throttled and self._outstanding < self.max_outstanding:
            self._throttled = False
            if self._sim.now < self.duration_us:
                self._sim.schedule(self._next_gap(), self._arrive_cb)

    # ------------------------------------------------------------------
    def _next_gap(self) -> float:
        """The gap to the next arrival, at the last arrival's phase rate."""
        return self._draws.exponential(self._derived[self._phase_idx][4])

    def _draw_size(self, phase: PhaseSpec) -> int:
        choices, probs = phase.size_blocks
        return int(self._draws.choice(choices, p=probs))

    def _arrive(self) -> None:
        sim = self._sim
        now = sim.now
        bounds = self._bounds
        if now >= bounds[-1]:
            self.stats.finished = True
            return
        # The phase advances even for a throttled arrival: the resume gap
        # drawn in on_request_complete uses the phase found here.  The
        # scan stops by the last phase, since now < bounds[-1].
        idx = self._phase_idx
        while now >= bounds[idx]:
            idx += 1
        self._phase_idx = idx
        if self._outstanding >= self.max_outstanding:
            self.stats.throttled += 1
            self._throttled = True
            return  # resumed by on_request_complete
        write_frac, sample_read, sample_write, nblocks, mean_gap = self._derived[idx]
        draws = self._draws
        is_write = draws.random() < write_frac
        lba = sample_write(draws) if is_write else sample_read(draws)
        if nblocks is None:
            nblocks = self._draw_size(self.phases[idx])
        self._deliver(
            Request(now, lba + self._lba_offset, nblocks, is_write, self._tenant_id)
        )
        sim.schedule(draws.exponential(mean_gap), self._arrive_cb)

    def _deliver(self, request: Request) -> None:
        """Count a generated request and submit it."""
        stats = self.stats
        stats.generated += 1
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self._outstanding += 1
        self._submit(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload({self.name!r}, phases={len(self.phases)}, "
            f"intervals={self.total_intervals})"
        )
