"""Bottleneck detection (Section III-A, Eq. 1) and the Group-3 tail rule.

LBICA flags the I/O cache as the performance bottleneck when the maximum
queue time of the cache exceeds that of the disk subsystem:

    ``cache_Qtime = ssdQSize × ssdLatency``
    ``disk_Qtime  = hddQSize × hddLatency``

:func:`cache_is_bottleneck` adds two knobs the paper implies but does not
spell out: a ``margin`` factor (1.0 is the paper's strict inequality) and
a ``min_cache_qtime_us`` floor, so a near-idle system is not declared a
burst.  LBICA and the SIB baseline both gate their balancing on it.

:func:`tail_past_threshold` is Group 3's rule (Section III-C): an op at
SSD queue position ``k`` waits ≈ ``k × ssdLatency``, so the ops beyond
``disk_Qtime / ssdLatency`` would be served sooner by the disk.  Only
that tail is bypassed and the head keeps cache service; the position
follows from Eq. 1 quantities, with none of SIB's per-request estimates.
"""

from __future__ import annotations

__all__ = ["cache_is_bottleneck", "tail_past_threshold"]


def cache_is_bottleneck(
    cache_qtime: float, disk_qtime: float, margin: float, min_cache_qtime_us: float
) -> bool:
    """Eq. 1: the cache queue time reaches the floor and strictly exceeds
    ``margin`` times the disk's.

    >>> cache_is_bottleneck(3000.0, 1000.0, margin=1.0, min_cache_qtime_us=2000.0)
    True
    >>> cache_is_bottleneck(1000.0, 0.0, margin=1.0, min_cache_qtime_us=2000.0)
    False
    >>> cache_is_bottleneck(2000.0, 1000.0, margin=2.0, min_cache_qtime_us=0.0)
    False
    """
    return cache_qtime >= min_cache_qtime_us and cache_qtime > disk_qtime * margin


def tail_past_threshold(pending: int, disk_qtime: float, ssd_latency: float) -> int:
    """How many of ``pending`` SSD ops sit beyond the bottleneck threshold.

    The threshold is ``disk_qtime / ssd_latency`` positions, at least 1,
    with the latency estimate floored at ``1e-9`` µs.

    >>> tail_past_threshold(20, disk_qtime=500.0, ssd_latency=100.0)
    15
    >>> tail_past_threshold(20, disk_qtime=0.0, ssd_latency=100.0)
    19
    >>> tail_past_threshold(3, disk_qtime=500.0, ssd_latency=100.0)
    0
    """
    threshold = max(int(disk_qtime / max(ssd_latency, 1e-9)), 1)
    return max(pending - threshold, 0)
