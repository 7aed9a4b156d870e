"""Percentiles that are only reported when the sample can support them."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_needed(fraction: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples above the ``fraction`` quantile."""
    return math.ceil(MIN_BEYOND / (1.0 - fraction) - 1e-9)


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """The nearest-rank ``fraction`` quantile, or ``None`` when under-sampled.

    With ``n`` samples the quantile is the ``ceil(fraction * n)``-th smallest;
    it is returned only when at least ``MIN_BEYOND`` samples are larger
    ranks than it, so a p99 needs 1000 samples and a p50 needs 20.
    """
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(fraction * count - 1e-9))
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]
