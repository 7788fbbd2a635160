"""Order statistics for the end-to-end benchmark.

Timings are reported as a median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it, so a tail figure never
rests on a handful of requests.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles considered for the tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly above rank ``p``.

    The ``p``-th percentile sits at zero-based rank ``(count-1)*p/100``;
    every sample ranked after it is beyond it.
    """
    if count <= 0:
        return 0
    pos = (count - 1) * p / 100.0
    return count - 1 - math.floor(pos)


def supports_percentile(count: int, p: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``count`` samples leave ``min_beyond`` beyond rank ``p``."""
    return samples_beyond(count, p) >= min_beyond


def highest_percentile(
    count: int,
    candidates: Sequence[float] = TAIL_CANDIDATES,
    min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """The highest candidate percentile ``count`` samples can support."""
    for p in sorted(candidates, reverse=True):
        if supports_percentile(count, p, min_beyond):
            return p
    return None


def interval_union(intervals: List[tuple]) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
