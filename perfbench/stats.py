"""Statistics the benchmark reports: percentiles, self time, tracing overhead.

Every function here is pure and takes plain numbers, so the rules the
benchmark publishes numbers under are tested on their own
(``perfbench/test_stats.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Percentiles considered for a timing, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is published only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by the nearest-rank method."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-th percentile."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def reportable_percentiles(samples: Sequence[float]) -> dict[float, float]:
    """Each ladder percentile with at least :data:`MIN_SAMPLES_BEYOND` above it.

    The last entry is the highest percentile the sample count supports; an
    empty result means there are too few samples to publish even a median.
    """
    return {
        q: percentile(samples, q)
        for q in PERCENTILE_LADDER
        if samples and samples_beyond(len(samples), q) >= MIN_SAMPLES_BEYOND
    }


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [
        (max(child_start, start), min(child_end, end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    ]
    return (end - start) - union_length(clipped)


def overhead_ratio(traced_wall: float, untraced_wall: float) -> float:
    """Tracing overhead: wall time with tracing on over wall time with it off."""
    if untraced_wall <= 0.0:
        raise ValueError("untraced wall time must be positive")
    return traced_wall / untraced_wall
