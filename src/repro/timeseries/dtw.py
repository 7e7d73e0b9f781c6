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

which :func:`dtw_costs` evaluates for a whole batch of pairs at once, one
anti-diagonal of padded tables per numpy step.  The optimal path (and
hence its length ``K``) is recovered by backtracking.  As is standard, the dynamic
program minimizes the *total* path cost and the result is normalized by
that path's length; this matches the paper's dynamic-programming recipe.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import get_metrics


def _as_series(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


#: Padded cells per block of the batched dynamic program: 2**18 float64
#: cells is 2 MiB per table, so batch size never shows in peak memory.
_BLOCK_CELLS = 1 << 18


def _blocks(rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """Pair indexes in blocks of about :data:`_BLOCK_CELLS` padded cells.

    Pairs are sorted by ``(rows, cols)`` so a block's padded table
    ``(max rows + 1) x (max cols + 1)`` wastes little on short pairs; a
    pair larger than the cap gets a block of its own.
    """
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    narrowest = int(cols.min()) + 1 if len(cols) else 1
    start = 0
    while start < len(order):
        most = _BLOCK_CELLS // ((int(rows[start]) + 1) * narrowest)
        stop = min(len(order), start + max(1, most))
        # Rows are sorted, so rows[k] is the block's row maximum at k.
        padded = (
            (rows[start:stop] + 1)
            * (np.maximum.accumulate(cols[start:stop]) + 1)
            * np.arange(1, stop - start + 1)
        )
        end = start + max(1, int(np.searchsorted(padded, _BLOCK_CELLS, "right")))
        yield order[start:end]
        start = end


def _padded(series: Sequence[np.ndarray], sizes: np.ndarray) -> np.ndarray:
    """The series as the columns of one zero-padded ``(max len, P)`` array."""
    out = np.zeros((int(sizes.max()), len(series)))
    position = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    out[position, np.repeat(np.arange(len(series)), sizes)] = np.concatenate(series)
    return out


def _cost_tables(
    a_series: Sequence[np.ndarray],
    b_series: Sequence[np.ndarray],
) -> np.ndarray:
    """Cumulative cost tables of a block of pairs, shape ``(M+1, N+1, P)``.

    ``M``/``N`` are the block's longest ``a``/``b`` series.  Entry
    ``[i, j, p]`` is ``r(i, j)`` of pair ``p`` with the usual infinite
    border.  Cell ``(i, j)`` reads only cells at or before it, so the
    zero padding past a pair's own lengths never reaches ``[m, n, p]``.

    The program runs one anti-diagonal ``i + j = d`` at a time for the
    whole block: in the row-major flattened table the diagonal and its
    three predecessors are stride-``N`` slices.  Each cell is one
    ``min`` of three neighbours plus one add, the arithmetic of the
    scalar recurrence, so every value is bit-identical to it.
    """
    rows = np.array([len(a) for a in a_series])
    cols = np.array([len(b) for b in b_series])
    m, n, pairs = int(rows.max()), int(cols.max()), len(a_series)
    a, b = _padded(a_series, rows), _padded(b_series, cols)
    dist = np.zeros((m + 1, n + 1, pairs))
    inner = dist[1:, 1:]
    np.subtract(a[:, np.newaxis, :], b[np.newaxis, :, :], out=inner)
    np.square(inner, out=inner)
    dist = dist.reshape(-1, pairs)
    cost = np.full(((m + 1) * (n + 1), pairs), np.inf)
    cost[0] = 0.0
    for d in range(2, m + n + 1):
        lo, hi = max(1, d - n), min(m, d - 1)
        start, stop = lo * n + d, hi * n + d + 1
        best = np.minimum(
            cost[start - n - 2 : stop - n - 2 : n], cost[start - n - 1 : stop - n - 1 : n]
        )
        np.minimum(best, cost[start - 1 : stop - 1 : n], out=best)
        np.add(dist[start:stop:n], best, out=cost[start:stop:n])
    return cost.reshape(m + 1, n + 1, pairs)


def warping_path(a: Sequence[float], b: Sequence[float]) -> Tuple[List[Tuple[int, int]], float]:
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

    The path is symmetric: ``warping_path(b, a)`` is this path with every
    pair transposed, at the same total.
    """
    arr_a = _as_series(a, "a")
    arr_b = _as_series(b, "b")
    if len(arr_a) == 0 or len(arr_b) == 0:
        raise ValueError("DTW is undefined for empty series")
    # The tables of (a, b) and (b, a) are exact transposes, but a
    # backtrack breaks up/left ties in argument order: backtrack on one
    # canonical order of the pair and transpose the path back.
    swapped = (len(arr_b), arr_b.tobytes()) < (len(arr_a), arr_a.tobytes())
    if swapped:
        arr_a, arr_b = arr_b, arr_a
    cost = _cost_tables([arr_a], [arr_b])[:, :, 0]
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
    if swapped:
        path = [(j, i) for i, j in path]
    return path, float(cost[len(arr_a), len(arr_b)])


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """DTW distance between two series per Eq. 7: ``sqrt(total_cost / K)``.

    ``K`` is the length of the optimal warping path; ``a`` and ``b`` may
    differ in length (the reason the paper picks DTW over lockstep
    distances).  The raw accumulated costs (Eq. 8's summands, the
    paper's Fig. 4 values) come from :func:`dtw_costs`.
    """
    metrics = get_metrics()
    metrics.counter("dtw.calls").inc()
    metrics.histogram("dtw.cells").observe(len(a) * len(b))
    path, total = warping_path(a, b)
    return float(np.sqrt(total / len(path)))


def dtw_costs(
    a_series: Sequence[Sequence[float]],
    b_series: Sequence[Sequence[float]],
    abandon: Union[float, Sequence[float], None] = None,
) -> np.ndarray:
    """Raw accumulated DTW costs of many pairs — Eq. 8's summands.

    Pair ``p`` is ``(a_series[p], b_series[p])``.  The pairs are sorted
    by shape and run in blocks through one batched dynamic program, and
    each pair reads its cost at ``r(m, n)``, the total of
    :func:`warping_path`.

    ``abandon`` optionally gives the pairs a budget (one for all, or one
    per pair): a pair is
    *abandoned* (its cost reported as ``inf``) when some completed DP row
    ``i <= m`` has every cell ``j <= n`` at or above its budget, since
    cumulative costs never decrease along a warping path.  This is the
    AG-TR pruning rule
    (:func:`~repro.core.grouping.trajectory.pairwise_trajectory_dissimilarity`),
    where the budget is what remains below the grouping threshold
    ``phi`` — an abandoned pair could never have formed a ``< phi`` edge.  A ``NaN``
    budget never abandons.  A ``+inf`` budget (the exact matrix) could only
    abandon a pair whose cost is already ``inf``, so a block with no budget
    below ``inf`` skips the abandon pass.

    Records ``dtw.calls`` and ``dtw.abandoned`` and one ``dtw.cells``
    observation per pair, in pair order.
    """
    a_list = [_as_series(a, "a") for a in a_series]
    b_list = [_as_series(b, "b") for b in b_series]
    if len(a_list) != len(b_list):
        raise ValueError(f"got {len(a_list)} a-series for {len(b_list)} b-series")
    rows = np.array([len(a) for a in a_list], dtype=np.int64)
    cols = np.array([len(b) for b in b_list], dtype=np.int64)
    if (rows == 0).any() or (cols == 0).any():
        raise ValueError("DTW is undefined for empty series")
    budgets = np.full(len(a_list), np.nan)
    if abandon is not None:
        budgets[:] = abandon
    costs = np.empty(len(a_list))
    abandoned = np.zeros(len(a_list), dtype=bool)
    for block in _blocks(rows, cols):
        tables = _cost_tables([a_list[p] for p in block], [b_list[p] for p in block])
        m, n = rows[block], cols[block]
        costs[block] = tables[m, n, np.arange(len(block))]
        if (budgets[block] < np.inf).any():
            # Row minima over each pair's own columns: blank the padding.
            cells = tables[1:, 1:]
            outside = np.arange(1, tables.shape[1])[:, np.newaxis] > n
            np.copyto(cells, np.inf, where=outside)
            row_min = cells.min(axis=1)
            completed = np.arange(1, tables.shape[0])[:, np.newaxis] <= m
            abandoned[block] = ((row_min >= budgets[block]) & completed).any(axis=0)
    costs[abandoned] = np.inf
    metrics = get_metrics()
    metrics.counter("dtw.calls").inc(len(a_list))
    histogram = metrics.histogram("dtw.cells")
    for size in (rows * cols).tolist():
        histogram.observe(size)
    metrics.counter("dtw.abandoned").inc(int(abandoned.sum()))
    return costs


def dtw_cost(
    a: Sequence[float],
    b: Sequence[float],
    abandon: Optional[float] = None,
) -> float:
    """Raw accumulated DTW cost of one pair, skipping path recovery.

    The one-pair case of :func:`dtw_costs`, and ``inf`` when the
    optional ``abandon`` budget is exhausted by a completed DP row.
    ``perfbench/test_perfbench.py`` checks its DTW reference against it.
    """
    budget = None if abandon is None else [abandon]
    return float(dtw_costs([a], [b], abandon=budget)[0])
