"""DTW lower bounds: cheap pruning for large trajectory populations.

AG-TR computes a quadratic number of DTW costs over accounts, each an
O(m·n) dynamic program.  The classic accelerator (Keogh &
Ratanamahatana, the paper's DTW reference line of work) is a *lower
bound* computable in linear time:

* :func:`lb_kim` — constant-time bound from the first and last points;
  :func:`lb_kim_pairs` evaluates it for a whole range of pairs at once;
* :func:`lb_keogh` — the envelope bound: slide a Sakoe-Chiba window over
  the candidate, build upper/lower envelopes, and sum the squared
  excursions of the query outside the envelope.

Because both bound the *raw accumulated* DTW cost from below, a pair
whose bound already reaches AG-TR's threshold ``phi`` can be skipped
without running the dynamic program — the grouping result is
unchanged.  AG-TR's pair scoring (:mod:`repro.runtime.pairwise`)
bounds every pair with :func:`lb_kim_pairs`, and re-bounds the pairs it
leaves below ``phi`` with :func:`pair_lower_bound` (which adds
:func:`lb_keogh` for equal lengths) when a band is set.  On the
~600-account population scenario LB_Kim alone leaves 412 of 179,700
pairs for the dynamic program.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
    pair = [_as_series(a, "a"), _as_series(b, "b")]
    return float(lb_kim_pairs(pair, np.array([0]), np.array([1]))[0])


def envelope(
    series: Sequence[float], window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sakoe-Chiba upper/lower envelopes of a series.

    ``upper[i] = max(series[i-w : i+w+1])`` and symmetrically for the
    lower envelope, with the slices truncated at the ends.  Computed as
    sliding windows over the series padded with ``-inf`` (``+inf`` for
    the lower envelope), which never win the max (min), so each value
    is the truncated slice's exactly.
    """
    arr = _as_series(series, "series")
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    # A half-width past the series covers all of it from every point.
    width = min(window, len(arr) - 1)

    def windows(fill: float) -> np.ndarray:
        padded = np.pad(arr, width, constant_values=fill)
        return sliding_window_view(padded, 2 * width + 1)

    return windows(np.inf).min(axis=1), windows(-np.inf).max(axis=1)


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


def lb_kim_pairs(
    series: Sequence[np.ndarray], i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """:func:`lb_kim` of every pair ``(series[i[k]], series[j[k]])`` at once.

    Built from each series' first and last values and length, with
    ``NaN`` where either series is empty.  AG-TR's pair scoring
    (:mod:`repro.runtime.pairwise`) bounds its whole pair range with it
    before running any dynamic program.
    """
    sizes = np.array([len(s) for s in series])
    first = np.array([float(s[0]) if len(s) else np.nan for s in series])
    last = np.array([float(s[-1]) if len(s) else np.nan for s in series])
    bound = first[i]
    bound -= first[j]
    np.square(bound, out=bound)
    gap = last[i]
    gap -= last[j]
    np.square(gap, out=gap)
    # Two one-point series: the first and last aligned pairs are the same
    # matrix cell; counting it twice would overshoot the true cost.
    np.add(bound, gap, out=bound, where=(sizes[i] > 1) | (sizes[j] > 1))
    return bound


def pair_lower_bound(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> float:
    """The tightest applicable lower bound on the raw DTW cost of a pair.

    Always includes :func:`lb_kim`; adds :func:`lb_keogh` when it is
    defined (equal lengths under an explicit Sakoe-Chiba band).  Since
    the bound never exceeds the true cost, pruning at the AG-TR
    threshold cannot change the threshold graph.
    """
    bound = lb_kim(a, b)
    if window is not None and len(a) == len(b):
        bound = max(bound, lb_keogh(a, b, window))
    return bound
