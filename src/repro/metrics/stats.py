"""Small statistics helpers (percentiles, means) used by reports.

These run on short lists in hot test paths, where a dependency-free
implementation is simpler and deterministic.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "percentile"]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the convention Table IV implies).

    ``p`` in [0, 100].  Raises on an empty sequence — a silent 0 would
    corrupt reports.  Rank is ``ceil(p/100 * n)``: the historical
    ``int(round(rank + 0.5))`` double-rounded exact ranks (p50 of two
    samples landed on ``round(1.5)`` → rank 2, i.e. the max).  The epsilon
    absorbs float representation error in the product — ``99.9/100*1000``
    is 999.0000000000001, and without it the ceil overshoots an exact rank
    the same way the double-round did.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} out of range")
    ordered = sorted(values)
    if p == 0:
        return ordered[0]
    rank = max(1, math.ceil(p / 100 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
