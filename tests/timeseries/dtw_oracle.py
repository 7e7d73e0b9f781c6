"""Reference AG-TR scoring: the scalar DTW recurrence and per-pair loop.

A test-only oracle for :mod:`repro.timeseries.dtw`,
:mod:`repro.timeseries.bounds` and :mod:`repro.runtime.pairwise`: the
dynamic program one cell at a time, the lower bounds one pair at a time,
and the pruned Eq. 8 pair loop with its DTW telemetry.  It shares no
code with the whole-array implementation it checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def oracle_cost_table(
    a: np.ndarray, b: np.ndarray, window: Optional[int], abandon: Optional[float] = None
) -> Optional[np.ndarray]:
    """The ``(m+1) x (n+1)`` cumulative cost table, one cell at a time.

    ``None`` as soon as every cell of a completed row reaches ``abandon``.
    """
    m, n = len(a), len(b)
    if window is not None:
        window = max(window, abs(m - n))
    cost = np.full((m + 1, n + 1), np.inf)
    cost[0, 0] = 0.0
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


def oracle_cost(a, b, window=None, abandon=None) -> Tuple[float, bool]:
    """The raw DTW cost (``inf`` when abandoned) and whether it was abandoned."""
    cost = oracle_cost_table(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), window, abandon
    )
    if cost is None:
        return float("inf"), True
    return float(cost[len(a), len(b)]), False


def oracle_envelope(series: np.ndarray, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sakoe-Chiba envelopes, one truncated slice per point."""
    n = len(series)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        upper[i] = series[lo:hi].max()
        lower[i] = series[lo:hi].min()
    return lower, upper


def oracle_lb_kim(a: np.ndarray, b: np.ndarray) -> float:
    """The first and last squared gaps, once when both series have one point."""
    bound = float((a[0] - b[0]) ** 2)
    if not (len(a) == 1 and len(b) == 1):
        bound = bound + float((a[-1] - b[-1]) ** 2)
    return bound


def oracle_pair_bound(a: np.ndarray, b: np.ndarray, window: Optional[int]) -> float:
    """LB_Kim, raised to LB_Keogh for equal lengths under a band."""
    bound = oracle_lb_kim(a, b)
    if window is not None and len(a) == len(b):
        lower, upper = oracle_envelope(b, window)
        above = np.maximum(a - upper, 0.0)
        below = np.maximum(lower - a, 0.0)
        bound = max(bound, float((above**2 + below**2).sum()))
    return bound


class OracleScores:
    """Eq. 8 over all pairs, with the counts the runtime reports."""

    def __init__(self) -> None:
        self.computed = self.pruned = self.shortcut = 0
        self.calls = self.abandoned = 0
        self.cells: List[int] = []

    def _cost(self, a, b, window, budget=None) -> float:
        self.calls += 1
        self.cells.append(len(a) * len(b))
        value, abandoned = oracle_cost(a, b, window, budget)
        self.abandoned += abandoned
        return value

    def matrix(
        self,
        trajectories: Sequence[Tuple[np.ndarray, np.ndarray]],
        window: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> np.ndarray:
        """The symmetric raw-cost Eq. 8 matrix, pruned at ``threshold``."""
        xs = [np.asarray(x, dtype=float) for x, _ in trajectories]
        ys = [np.asarray(y, dtype=float) for _, y in trajectories]
        n = len(xs)
        out = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                out[a, b] = out[b, a] = self._score(xs[a], xs[b], ys[a], ys[b], window, threshold)
        return out

    def _score(self, xa, xb, ya, yb, window, threshold) -> float:
        if len(xa) == 0 or len(xb) == 0:
            return np.nan
        if threshold is None:
            self.computed += 1
            return self._cost(xa, xb, window) + self._cost(ya, yb, window)
        bound = oracle_pair_bound(xa, xb, window) + oracle_pair_bound(ya, yb, window)
        if bound >= threshold:
            self.pruned += 1
            return np.inf
        partial = self._cost(xa, xb, window, threshold)
        if partial >= threshold:
            self.shortcut += 1
            return np.inf
        second = self._cost(ya, yb, window, threshold - partial)
        if np.isinf(second):
            self.shortcut += 1
            return np.inf
        self.computed += 1
        return partial + second
