"""Dynamic time warping, as defined in the paper (Section IV-C).

Given two series ``A = a_1..a_m`` and ``B = b_1..b_n``, build the m-by-n
matrix of squared pointwise distances ``(a_i - b_j)^2`` and find the
warping path ``W = w_1..w_K`` (a contiguous, monotone set of matrix cells
from ``(1,1)`` to ``(m,n)``) minimizing the accumulated cost.  The DTW
distance is then (Eq. 7, after Ratanamahatana & Keogh):

``DTW(A, B) = sqrt( sum_k w_k / K )``

i.e. the root of the mean squared distance along the optimal path.  The
cumulative cost obeys the standard recurrence

``r(i, j) = dist(a_i, b_j) + min{ r(i-1, j-1), r(i-1, j), r(i, j-1) }``

which we evaluate bottom-up with numpy.  The optimal path (and hence its
length ``K``) is recovered by backtracking.  As is standard, the dynamic
program minimizes the *total* path cost and the result is normalized by
that path's length; this matches the paper's dynamic-programming recipe.

A Sakoe-Chiba band (``window``) optionally constrains ``|i - j|`` to bound
the quadratic cost on long series; ``window=None`` (default, used by the
paper's examples) is the unconstrained DP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_metrics


def _as_series(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _cumulative_cost(
    a: np.ndarray,
    b: np.ndarray,
    window: Optional[int],
    abandon: Optional[float] = None,
) -> Optional[np.ndarray]:
    """The (m+1)x(n+1) cumulative cost table with an infinite border.

    With ``abandon`` set, returns ``None`` as soon as every cell of a
    completed DP row has reached ``abandon``: cumulative costs never
    decrease along a warping path, so the final cost is then provably
    ``>= abandon`` and the rest of the table is irrelevant.
    """
    m, n = len(a), len(b)
    if window is not None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        # The band must be wide enough to connect (1,1) to (m,n).
        window = max(window, abs(m - n))
    cost = np.full((m + 1, n + 1), np.inf)
    cost[0, 0] = 0.0
    # Pointwise squared distances, computed in one vectorized step.
    dist = (a[:, np.newaxis] - b[np.newaxis, :]) ** 2
    for i in range(1, m + 1):
        if window is None:
            lo, hi = 1, n
        else:
            lo, hi = max(1, i - window), min(n, i + window)
        for j in range(lo, hi + 1):
            best = min(cost[i - 1, j - 1], cost[i - 1, j], cost[i, j - 1])
            cost[i, j] = dist[i - 1, j - 1] + best
        if abandon is not None and cost[i, 1:].min() >= abandon:
            return None
    return cost


def warping_path(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> Tuple[List[Tuple[int, int]], float]:
    """The optimal warping path and its total (un-normalized) cost.

    Returns
    -------
    path:
        List of 0-based ``(i, j)`` index pairs from ``(0, 0)`` to
        ``(m-1, n-1)``, satisfying the contiguity constraint (each step
        moves by one in at least one dimension) and the boundary condition
        ``max(m, n) <= K <= m + n - 1``.
    total_cost:
        Sum of squared pointwise distances along the path.
    """
    arr_a = _as_series(a, "a")
    arr_b = _as_series(b, "b")
    if len(arr_a) == 0 or len(arr_b) == 0:
        raise ValueError("DTW is undefined for empty series")
    cost = _cumulative_cost(arr_a, arr_b, window)
    i, j = len(arr_a), len(arr_b)
    path: List[Tuple[int, int]] = []
    while i > 0 or j > 0:
        path.append((i - 1, j - 1))
        if i == 1 and j == 1:
            break
        # Choose the predecessor with the smallest cumulative cost; the
        # diagonal wins ties, which keeps paths short and deterministic.
        candidates = (
            (cost[i - 1, j - 1], (i - 1, j - 1)),
            (cost[i - 1, j], (i - 1, j)),
            (cost[i, j - 1], (i, j - 1)),
        )
        _, (i, j) = min(candidates, key=lambda item: item[0])
    path.reverse()
    return path, float(cost[len(arr_a), len(arr_b)])


def dtw_distance(
    a: Sequence[float],
    b: Sequence[float],
    window: Optional[int] = None,
    normalized: bool = True,
) -> float:
    """DTW distance between two series per Eq. 7.

    Parameters
    ----------
    a, b:
        The two numeric series; they may differ in length (the reason the
        paper picks DTW over lockstep distances).
    window:
        Optional Sakoe-Chiba band half-width.
    normalized:
        If true (default, the paper's definition) return
        ``sqrt(total_cost / K)`` where ``K`` is the optimal path length;
        if false return the raw total cost (useful for tests against
        hand-computed DP tables).
    """
    metrics = get_metrics()
    metrics.counter("dtw.calls").inc()
    metrics.histogram("dtw.cells").observe(len(a) * len(b))
    path, total = warping_path(a, b, window=window)
    if not normalized:
        return total
    return float(np.sqrt(total / len(path)))


def dtw_cost(
    a: Sequence[float],
    b: Sequence[float],
    window: Optional[int] = None,
    abandon: Optional[float] = None,
) -> float:
    """Raw accumulated DTW cost — Eq. 8's summand — without backtracking.

    Computes the same DP recurrence as :func:`dtw_distance` with
    ``normalized=False`` (the results are bit-identical) but skips path
    recovery, and optionally *early-abandons*: with ``abandon`` set,
    ``inf`` is returned as soon as every cell of a DP row has reached
    that value, since cumulative costs never decrease along a path.
    This is the workhorse of the sharded AG-TR runtime
    (:mod:`repro.runtime.pairwise`), where ``abandon`` is the remaining
    budget below the grouping threshold ``phi`` — any pair abandoned
    here could never have formed a ``< phi`` edge.
    """
    arr_a = _as_series(a, "a")
    arr_b = _as_series(b, "b")
    if len(arr_a) == 0 or len(arr_b) == 0:
        raise ValueError("DTW is undefined for empty series")
    metrics = get_metrics()
    metrics.counter("dtw.calls").inc()
    metrics.histogram("dtw.cells").observe(len(arr_a) * len(arr_b))
    cost = _cumulative_cost(arr_a, arr_b, window, abandon=abandon)
    if cost is None:
        metrics.counter("dtw.abandoned").inc()
        return float("inf")
    return float(cost[len(arr_a), len(arr_b)])
