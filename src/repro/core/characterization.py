"""Workload characterization from the in-queue request mix (Section III-B).

Given the R/W/P/E composition of the SSD cache queue (from the blktrace
substrate), place the running workload into one of the paper's groups:

- **Group 1** (R + P dominant): random read — hits served by the cache,
  misses promoted.
- **Group 2** (R + W dominant): mixed read-write.
- **Group 3** (W + E dominant): write-intensive; within the group, a
  high W:E ratio means random write, otherwise sequential write.
- **Group 4** (P dominant): sequential read — everything misses and gets
  promoted.
- The remaining pairings (R+E, W+P) "may not occur" per the paper; they
  map to :attr:`WorkloadGroup.UNKNOWN` and LBICA leaves the current
  policy in place.

Classification uses the paper's *majority* notion: rank the four types by
share and take the top two, with a P-dominance check first for Group 4.
The thresholds are :class:`CharacterizerConfig` fields, so a scenario
can set them through ``system.lbica.characterizer``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from repro.io.request import OpTag

__all__ = ["WorkloadGroup", "CharacterizerConfig", "WorkloadCharacterizer", "QueueMix"]


class WorkloadGroup(str, Enum):
    """The paper's characterization groups."""

    RANDOM_READ = "group1_random_read"
    MIXED_RW = "group2_mixed_rw"
    RANDOM_WRITE = "group3_random_write"
    SEQUENTIAL_WRITE = "group3_sequential_write"
    SEQUENTIAL_READ = "group4_sequential_read"
    UNKNOWN = "unknown"

    @property
    def is_write_intensive(self) -> bool:
        """Whether the group is a Group-3 (W+E) variant."""
        return self in (WorkloadGroup.RANDOM_WRITE, WorkloadGroup.SEQUENTIAL_WRITE)


@dataclass(frozen=True)
class QueueMix:
    """Normalized R/W/P/E shares of a queue snapshot."""

    r: float
    w: float
    p: float
    e: float
    total: int

    @classmethod
    def from_counts(cls, counts: Counter) -> "QueueMix":
        """Build from a tag counter (as returned by the blktrace substrate)."""
        total = sum(counts.values())
        if total == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            r=counts.get(OpTag.READ, 0) / total,
            w=counts.get(OpTag.WRITE, 0) / total,
            p=counts.get(OpTag.PROMOTE, 0) / total,
            e=counts.get(OpTag.EVICT, 0) / total,
            total=total,
        )

    def top_two(self) -> tuple[str, str]:
        """The two dominant tags, by share (deterministic tie-break R<W<P<E)."""
        ranked = sorted(
            (("R", self.r), ("W", self.w), ("P", self.p), ("E", self.e)),
            key=lambda kv: -kv[1],
        )
        return ranked[0][0], ranked[1][0]

    def as_dict(self) -> dict[str, float]:
        """Shares keyed by tag letter."""
        return {"R": self.r, "W": self.w, "P": self.p, "E": self.e}


@dataclass
class CharacterizerConfig:
    """Thresholds of the classifier.

    Attributes:
        min_queue_ops: Snapshots smaller than this are too noisy to
            classify (returns UNKNOWN).
        p_dominance: P share above which the workload is Group 4
            (sequential read) regardless of the runner-up.
        random_write_ratio: Within Group 3, ``W / (W + E)`` above this
            means random write, below sequential write (the paper:
            "in case of higher ratio of W compared to E ... random
            write").
        min_secondary_share: A runner-up tag below this share is not
            "major"; the mix degenerates to its dominant tag alone
            (R → Group 1, P → Group 4, W → Group 3 random write).  The
            paper's pairings all have both members well above this.
        write_dominance_ratio: A (W, R) pairing with
            ``W / (W + R)`` above this is write-intensive, not Group 2 —
            Group 2 is defined by written data being *read back*
            ("accessed by the future requests"), so a ~95%-write mix with
            a sliver of reads is a write storm.  The paper's Group-2
            examples sit at ratios ≤ 0.84 (mail@23: 0.835, web@1: 0.78).
    """

    min_queue_ops: int = 8
    p_dominance: float = 0.70
    random_write_ratio: float = 0.50
    min_secondary_share: float = 0.04
    write_dominance_ratio: float = 0.85

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""
        if self.min_queue_ops < 0:
            raise ValueError("min_queue_ops must be non-negative")
        if not 0.0 < self.p_dominance <= 1.0:
            raise ValueError("p_dominance must be in (0, 1]")
        if not 0.0 <= self.random_write_ratio <= 1.0:
            raise ValueError("random_write_ratio must be in [0, 1]")
        if not 0.0 <= self.min_secondary_share <= 0.5:
            raise ValueError("min_secondary_share must be in [0, 0.5]")
        if not 0.5 <= self.write_dominance_ratio <= 1.0:
            raise ValueError("write_dominance_ratio must be in [0.5, 1]")


_PAIR_TO_GROUP: dict[frozenset[str], WorkloadGroup] = {
    frozenset(("R", "P")): WorkloadGroup.RANDOM_READ,
    frozenset(("R", "W")): WorkloadGroup.MIXED_RW,
    # W+E resolved to random vs sequential write in classify()
}


class WorkloadCharacterizer:
    """Maps queue snapshots to :class:`WorkloadGroup` labels."""

    def __init__(self, config: CharacterizerConfig | None = None) -> None:
        self.config = config or CharacterizerConfig()
        self.config.validate()

    def classify_counts(self, counts: Counter) -> WorkloadGroup:
        """Classify a raw tag counter."""
        return self.classify(QueueMix.from_counts(counts))

    def classify(self, mix: QueueMix) -> WorkloadGroup:
        """Classify a normalized mix (see module docstring for the rules)."""
        cfg = self.config
        if mix.total < cfg.min_queue_ops:
            return WorkloadGroup.UNKNOWN
        if mix.p >= cfg.p_dominance:
            return WorkloadGroup.SEQUENTIAL_READ
        first, second = mix.top_two()
        shares = mix.as_dict()
        if shares[second] < cfg.min_secondary_share:
            # Degenerate mix: one tag dominates outright.
            return {
                "R": WorkloadGroup.RANDOM_READ,
                "P": WorkloadGroup.SEQUENTIAL_READ,
                "W": WorkloadGroup.RANDOM_WRITE,
                "E": WorkloadGroup.UNKNOWN,
            }[first]
        pair = frozenset((first, second))
        if pair == frozenset(("W", "E")):
            w_ratio = mix.w / (mix.w + mix.e) if (mix.w + mix.e) > 0 else 1.0
            if w_ratio > cfg.random_write_ratio:
                return WorkloadGroup.RANDOM_WRITE
            return WorkloadGroup.SEQUENTIAL_WRITE
        if pair == frozenset(("R", "W")):
            rw = mix.w / (mix.w + mix.r) if (mix.w + mix.r) > 0 else 0.0
            if rw > cfg.write_dominance_ratio:
                # Write-dominated with only a sliver of reads: a write
                # storm, not a mixed read-write workload.
                return WorkloadGroup.RANDOM_WRITE
        group = _PAIR_TO_GROUP.get(pair)
        if group is not None:
            return group
        # R+E and W+P: "may not occur" per the paper — leave unclassified.
        return WorkloadGroup.UNKNOWN

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadCharacterizer({self.config})"
