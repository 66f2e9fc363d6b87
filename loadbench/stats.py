"""Percentiles that refuse to report a tail the sample cannot support."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


@dataclass(frozen=True)
class Percentile:
    value: float
    p: float
    n: int


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples: Sequence[float], p: float) -> Percentile:
    """Nearest-rank ``p``-th percentile, refused unless ``MIN_BEYOND`` samples exceed its rank.

    The nearest rank is ``ceil(p/100 * n)``; the samples beyond it number
    ``n - rank``.  The error message states ``n`` so a caller can size its
    run.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    n = len(samples)
    rank = _rank(p, n)
    beyond = n - rank
    if beyond < MIN_BEYOND:
        needed = n
        while needed - _rank(p, needed) < MIN_BEYOND:
            needed += 1
        raise UnsupportedPercentile(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it: n={n} leaves {beyond} "
            f"(at least n={needed} required)"
        )
    return Percentile(value=sorted(samples)[rank - 1], p=p, n=n)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
