"""Aggregation helpers for benchmark summaries (speedup tables, geo-means)."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's headline aggregate)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean of an empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


#: The speedup buckets used by Tables 5 and 6.
SPEEDUP_BUCKETS: tuple[tuple[str, float, float], ...] = (
    ("<1", 0.0, 1.0),
    ("1-1.5", 1.0, 1.5),
    ("1.5-2", 1.5, 2.0),
    (">=2", 2.0, float("inf")),
)


def speedup_distribution(speedups: Sequence[float]) -> dict[str, float]:
    """Bucketed speedup distribution plus geometric mean and max.

    Returns a mapping with one ``%`` entry per bucket of Tables 5/6 plus
    ``geomean`` and ``max``.
    """
    arr = np.asarray(list(speedups), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no speedups provided")
    out: dict[str, float] = {}
    for label, lo, hi in SPEEDUP_BUCKETS:
        frac = float(np.mean((arr >= lo) & (arr < hi)))
        out[label] = 100.0 * frac
    out["geomean"] = geometric_mean(arr)
    out["max"] = float(arr.max())
    return out

