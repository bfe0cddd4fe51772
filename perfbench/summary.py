"""Percentile summaries of latency samples."""

from __future__ import annotations

import math


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list.

    The value at rank ceil(q * n), counting from 1, so it is always one
    of the samples: for 1..10, q=0.5 gives 5 and q=0.9 gives 9.
    """
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1]


def summarize(values: list[float]) -> dict[str, float]:
    """Sample count, p50, p90 and p99 of unsorted values."""
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
    }
