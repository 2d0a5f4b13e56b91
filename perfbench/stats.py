"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Optional, Sequence

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def samples_beyond(n: int, p: float) -> float:
    """Expected number of samples above the p-th percentile of n samples
    (rounded so that 100 samples leave exactly 10 beyond the 90th)."""
    return round(n * (100.0 - p) / 100.0, 9)


def tail(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """(p, value) for the highest percentile with at least MIN_BEYOND samples
    beyond it; None when even the 90th has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(samples), p) >= MIN_BEYOND:
            best = (p, percentile(samples, p))
    return best


def percentile_if_supported(samples: Sequence[float], p: float) -> float:
    """The p-th percentile when at least MIN_BEYOND samples lie beyond it,
    otherwise 0.0 (the report states the sample count)."""
    if samples and samples_beyond(len(samples), p) >= MIN_BEYOND:
        return percentile(samples, p)
    return 0.0
