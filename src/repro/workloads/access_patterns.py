"""Block-address generators.

Every pattern maps a random draw to a 4-KiB block address inside its
footprint.  Footprint size relative to cache capacity is what controls
the hit ratio, and hence the promote (``P``) and evict (``E``) traffic
that drives the paper's workload characterization.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right

import numpy as np

from repro.sim.summation import left_sum

__all__ = [
    "AddressPattern",
    "UniformPattern",
    "ZipfPattern",
    "HotColdPattern",
    "SequentialPattern",
    "MixPattern",
]


class AddressPattern(ABC):
    """A stateful or stateless generator of block addresses."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """Draw the next block address."""

    @property
    @abstractmethod
    def footprint(self) -> int:
        """Number of distinct blocks the pattern can touch."""


class UniformPattern(AddressPattern):
    """Uniform random addresses in ``[start, start + span)``."""

    def __init__(self, start: int, span: int) -> None:
        if span <= 0:
            raise ValueError("span must be positive")
        self.start = start
        self.span = span

    def sample(self, rng: np.random.Generator) -> int:
        return self.start + int(rng.integers(0, self.span))

    @property
    def footprint(self) -> int:
        return self.span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformPattern({self.start}+{self.span})"


class ZipfPattern(AddressPattern):
    """Zipf-distributed addresses over a bounded span.

    Block ``k`` (0-based rank) is drawn with probability proportional to
    ``1 / (k + 1) ** s``.  Ranks are mapped to addresses through a fixed
    permutation seedable per pattern, so "hot" blocks are scattered over
    the footprint instead of clustered at low addresses (which would
    otherwise interact with set indexing).
    """

    def __init__(
        self, start: int, span: int, s: float = 1.1, perm_seed: int = 1
    ) -> None:
        if span <= 0:
            raise ValueError("span must be positive")
        if s <= 0:
            raise ValueError("skew s must be positive")
        self.start = start
        self.span = span
        self.s = s
        weights = 1.0 / np.power(np.arange(1, span + 1, dtype=np.float64), s)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        # Only Python-list forms are kept: bisect on a list beats a
        # scalar np.searchsorted call, returns the identical index (both
        # are exact binary searches over the same doubles), and dropping
        # the numpy originals halves the per-pattern resident footprint.
        self._cdf: list[float] = cdf.tolist()
        self._perm: list[int] = (
            np.random.default_rng(perm_seed).permutation(span).tolist()
        )

    def sample(self, rng: np.random.Generator) -> int:
        rank = bisect_right(self._cdf, rng.random())
        if rank >= self.span:
            rank = self.span - 1
        return self.start + self._perm[rank]

    @property
    def footprint(self) -> int:
        return self.span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZipfPattern({self.start}+{self.span}, s={self.s})"


class HotColdPattern(AddressPattern):
    """Two-tier locality: a hot region hit with ``hot_prob``, else cold.

    The classic 90/10 knob: with a hot region that fits in the cache and
    a cold region that does not, ``1 - hot_prob`` directly dials the miss
    (and therefore promotion) rate.
    """

    def __init__(
        self,
        hot_start: int,
        hot_span: int,
        cold_start: int,
        cold_span: int,
        hot_prob: float = 0.9,
    ) -> None:
        if not 0.0 <= hot_prob <= 1.0:
            raise ValueError("hot_prob must be in [0, 1]")
        self.hot = UniformPattern(hot_start, hot_span)
        self.cold = UniformPattern(cold_start, cold_span)
        self.hot_prob = hot_prob

    def sample(self, rng: np.random.Generator) -> int:
        # The chosen tier's UniformPattern.sample, written out: one call
        # fewer per address.
        tier = self.hot if rng.random() < self.hot_prob else self.cold
        return tier.start + int(rng.integers(0, tier.span))

    @property
    def footprint(self) -> int:
        return self.hot.span + self.cold.span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HotColdPattern(hot={self.hot.start}+{self.hot.span}, "
            f"cold={self.cold.start}+{self.cold.span}, p={self.hot_prob})"
        )


class SequentialPattern(AddressPattern):
    """A sequential stream over ``[start, start + span)``, wrapping.

    ``stride`` blocks are consumed per sample (use together with the same
    request size for a contiguous scan).
    """

    def __init__(self, start: int, span: int, stride: int = 1) -> None:
        if span <= 0 or stride <= 0:
            raise ValueError("span and stride must be positive")
        self.start = start
        self.span = span
        self.stride = stride
        self._pos = 0

    def sample(self, rng: np.random.Generator) -> int:
        lba = self.start + self._pos
        self._pos = (self._pos + self.stride) % self.span
        return lba

    @property
    def footprint(self) -> int:
        return self.span

    def reset(self) -> None:
        """Rewind the stream to its start."""
        self._pos = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SequentialPattern({self.start}+{self.span}, stride={self.stride})"


class MixPattern(AddressPattern):
    """A probabilistic mixture of other patterns."""

    def __init__(self, components: list[tuple[float, AddressPattern]]) -> None:
        if not components:
            raise ValueError("at least one component required")
        total = left_sum(p for p, _ in components)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._cut: list[float] = np.cumsum(
            [p / total for p, _ in components]
        ).tolist()
        self._patterns = [pat for _, pat in components]

    def sample(self, rng: np.random.Generator) -> int:
        idx = bisect_right(self._cut, rng.random())
        if idx >= len(self._patterns):
            idx = len(self._patterns) - 1
        return self._patterns[idx].sample(rng)

    @property
    def footprint(self) -> int:
        return sum(p.footprint for p in self._patterns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MixPattern({len(self._patterns)} components)"
