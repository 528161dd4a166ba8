"""Statistics the benchmark reports: nearest-rank percentiles, medians over
rounds, and the quartile spread the noise gate is judged by.

One sample set per op class feeds every statistic of that class (PR 11
printed a p50 above its own p99 because the two came from different sets).
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, List, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    *p* of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile share out of range: {p}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


mean = statistics.fmean


def p50(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def median_of_rounds(rounds: Sequence[Sequence[float]],
                     stat: Callable[[Sequence[float]], float]) -> float:
    """The median over rounds of each round's own statistic (rule 2): a
    neighbour burst spoils one round of every class, and the median over
    rounds drops it."""
    values = [stat(r) for r in rounds if r]
    if not values:
        raise ValueError("no round has samples")
    return statistics.median(values)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(share, value)`` of the highest percentile, at most p99, that still
    has ten samples beyond it (rule 4); p50 when the set is too small."""
    n = len(samples)
    share = min(0.99, max(0.5, 1.0 - 10.0 / n)) if n else 0.5
    return share, percentile(samples, share)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver holds against a metric's bound."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def relative_worsening(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def pooled(rounds: Sequence[Sequence[float]]) -> List[float]:
    return [s for r in rounds for s in r]
