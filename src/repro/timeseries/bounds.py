"""DTW lower bounds: cheap pruning for large trajectory populations.

AG-TR computes a quadratic number of DTW distances over accounts.  Each
DTW is itself O(m·n); for city-scale populations that dominates.  The
classic accelerator (Keogh & Ratanamahatana, the paper's DTW reference
line of work) is a *lower bound* computable in linear time:

* :func:`lb_kim` — constant-time bound from the first/last/min/max points;
* :func:`lb_keogh` — the envelope bound: slide a Sakoe-Chiba window over
  the candidate, build upper/lower envelopes, and sum the squared
  excursions of the query outside the envelope.

Because both bound the *raw accumulated* DTW cost from below, a pair
whose bound already exceeds AG-TR's threshold ``phi`` can be skipped
without running the full dynamic program — the grouping result is
unchanged.  :func:`pair_lower_bound` packages that pattern for AG-TR's
sharded pair scoring (:mod:`repro.runtime.pairwise`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def _as_series(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if len(arr) == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def lb_kim(a: Sequence[float], b: Sequence[float]) -> float:
    """Constant-time lower bound on the raw DTW cost.

    Any warping path aligns the first points with each other and the last
    points with each other, so those two squared gaps are unavoidable.
    (The classic LB_Kim also uses min/max alignments, which are only
    valid under extra assumptions; this conservative two-point version is
    always a true bound.)
    """
    arr_a = _as_series(a, "a")
    arr_b = _as_series(b, "b")
    first = float((arr_a[0] - arr_b[0]) ** 2)
    if len(arr_a) == 1 and len(arr_b) == 1:
        # The first and last aligned pairs are the same matrix cell;
        # counting it twice would overshoot the true cost.
        return first
    return first + float((arr_a[-1] - arr_b[-1]) ** 2)


def envelope(
    series: Sequence[float], window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sakoe-Chiba upper/lower envelopes of a series.

    ``upper[i] = max(series[i-w : i+w+1])`` and symmetrically for the
    lower envelope.
    """
    arr = _as_series(series, "series")
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    n = len(arr)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        upper[i] = arr[lo:hi].max()
        lower[i] = arr[lo:hi].min()
    return lower, upper


def lb_keogh(
    query: Sequence[float], candidate: Sequence[float], window: int
) -> float:
    """LB_Keogh lower bound on the banded raw DTW cost.

    Valid for equal-length series under a Sakoe-Chiba band of half-width
    ``window``: every query point must align with some candidate point
    inside its window, so its squared distance to the candidate's
    envelope is unavoidable.

    Raises
    ------
    ValueError
        If the series lengths differ (the bound is only defined there;
        AG-TR series of unequal length skip the bound).
    """
    q = _as_series(query, "query")
    c = _as_series(candidate, "candidate")
    if len(q) != len(c):
        raise ValueError(
            f"LB_Keogh requires equal lengths, got {len(q)} and {len(c)}"
        )
    lower, upper = envelope(c, window)
    above = np.maximum(q - upper, 0.0)
    below = np.maximum(lower - q, 0.0)
    return float((above**2 + below**2).sum())


def pair_lower_bound(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> float:
    """The tightest applicable lower bound on the raw DTW cost of a pair.

    Always includes :func:`lb_kim`; adds :func:`lb_keogh` when it is
    defined (equal lengths under an explicit Sakoe-Chiba band).  This is
    the per-pair bound the sharded AG-TR runtime
    (:mod:`repro.runtime.pairwise`) evaluates before committing to the
    quadratic dynamic program: since the bound never exceeds the true
    cost, pruning at the AG-TR threshold cannot change the threshold
    graph.
    """
    bound = lb_kim(a, b)
    if window is not None and len(a) == len(b):
        bound = max(bound, lb_keogh(a, b, window))
    return bound
