"""Float sums that give the same bits on every Python version.

Python 3.12 changed the builtin ``sum()`` to compensate float rounding
(Neumaier's algorithm, gh-100425), so a ``sum()`` of floats can differ
in its last bits between 3.11 and 3.12.  The golden fingerprints compare
such sums exactly, and a few simulation inputs are float totals, so
those sums use :func:`left_sum` instead: the plain left-to-right fold
that ``sum()`` computes on 3.10 and 3.11.
"""

from __future__ import annotations

from typing import Iterable, Union

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> Union[float, int]:
    """``values`` added one by one from the left, with no compensation.

    The same bits as ``sum(values)`` on Python 3.10 and 3.11, on any
    interpreter.  An empty input gives the int ``0``, as ``sum()`` does.
    """
    total: Union[float, int] = 0
    for value in values:
        total += value
    return total
