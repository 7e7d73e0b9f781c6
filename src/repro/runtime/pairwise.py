"""Sharded all-pairs DTW scoring for AG-TR account grouping.

AG-TR (Eqs. 7-8 DTW dissimilarity) scores the upper-triangular pair
space of the account population, and each pair runs a quadratic
dynamic program in the interpreter — the one grouping stage a process
pool speeds up.  This module chunks that pair space into shards
(:mod:`repro.runtime.sharding`), computes each shard's block with a
**module-level worker function** (so shards can run on a process pool),
and merges the blocks back into the full symmetric matrix in shard
order.

Determinism contract: for a given input, every entry of the merged
matrix is computed by exactly one shard with exactly the serial
arithmetic, so the result is identical for any worker count — the
worker layer changes *where* a pair is scored, never *how*.  The DTW
telemetry (``dtw.calls``, ``dtw.abandoned``, the ``dtw.cells``
histogram) is tallied per shard and recorded by the parent, so it is
identical for any worker count too.

The shards reuse the :mod:`repro.timeseries.bounds` lower bounds: when
the caller supplies the AG-TR edge threshold ``phi``, a pair whose
bound already reaches ``phi`` is recorded as ``inf`` (definitely not an
edge in the strict ``< phi`` graph) without running the quadratic DTW
dynamic program; after the task-series DTW, a partial sum already at
``phi`` short-circuits the timestamp-series DTW the same way.  Both
cuts only ever replace values that could not have produced an edge, so
the thresholded graph — and therefore the grouping — is identical to
the full computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.runtime.executor import get_runtime
from repro.runtime.sharding import (
    default_shard_count,
    pair_count,
    pair_index_to_ij,
    pair_shards,
)


@dataclass(frozen=True)
class PairwiseStats:
    """How a sharded pairwise stage disposed of its pairs.

    Attributes
    ----------
    computed:
        Pairs whose score was fully evaluated.
    pruned:
        Pairs skipped by a :mod:`repro.timeseries.bounds` lower bound.
    shortcut:
        Pairs abandoned after the first of the two Eq. 8 DTW terms
        already reached the threshold.
    """

    computed: int = 0
    pruned: int = 0
    shortcut: int = 0

    @property
    def total(self) -> int:
        return self.computed + self.pruned + self.shortcut


def _dissimilarity_shard(payload):
    """Worker: Eq. 8 scores for one pair range, bounds-pruned at ``phi``.

    Returns the block, the pair dispositions, and the shard's DTW
    telemetry: the ``dtw.calls`` and ``dtw.abandoned`` counts and the
    ``dtw.cells`` observations in call order.  The DTW kernels record
    into a scratch registry here, so the parent records each tally once
    whether the shard ran inline or in a pool worker.
    """
    from repro.timeseries.bounds import pair_lower_bound
    from repro.timeseries.dtw import dtw_cost, dtw_distance

    lo, hi, n, xs, ys, window, normalized, threshold = payload
    out = np.empty(hi - lo)
    computed = pruned = shortcut = 0
    cells: List[int] = []
    scratch = MetricsRegistry()

    def cost(a, b, budget=None):
        cells.append(len(a) * len(b))
        return dtw_cost(a, b, window=window, abandon=budget)

    i_arr, j_arr = pair_index_to_ij(np.arange(lo, hi, dtype=np.int64), n)
    prune = threshold is not None and not normalized
    previous = set_metrics(scratch)
    try:
        for t in range(hi - lo):
            a, b = int(i_arr[t]), int(j_arr[t])
            xa, xb = xs[a], xs[b]
            if len(xa) == 0 or len(xb) == 0:
                out[t] = np.nan
                continue
            ya, yb = ys[a], ys[b]
            if prune:
                bound = pair_lower_bound(xa, xb, window) + pair_lower_bound(
                    ya, yb, window
                )
                if bound >= threshold:
                    out[t] = np.inf
                    pruned += 1
                    continue
                partial = cost(xa, xb, threshold)
                if partial >= threshold:
                    out[t] = np.inf
                    shortcut += 1
                    continue
                # The timestamp term may early-abandon at the *remaining*
                # budget: a total >= phi can never form a < phi edge.
                second = cost(ya, yb, threshold - partial)
                if np.isinf(second):
                    out[t] = np.inf
                    shortcut += 1
                    continue
                out[t] = partial + second
            elif not normalized:
                out[t] = cost(xa, xb) + cost(ya, yb)
            else:
                cells.extend((len(xa) * len(xb), len(ya) * len(yb)))
                out[t] = dtw_distance(
                    xa, xb, window=window, normalized=True
                ) + dtw_distance(ya, yb, window=window, normalized=True)
            computed += 1
    finally:
        set_metrics(previous)
    tallies = (
        scratch.counter("dtw.calls").value,
        scratch.counter("dtw.abandoned").value,
    )
    return out, (computed, pruned, shortcut), tallies, cells


def sharded_trajectory_dissimilarity(
    trajectories: Sequence[Tuple[np.ndarray, np.ndarray]],
    window: Optional[int] = None,
    normalized: bool = False,
    prune_threshold: Optional[float] = None,
) -> Tuple[np.ndarray, PairwiseStats]:
    """The full symmetric Eq. 8 dissimilarity matrix, computed in shards.

    The shards run on the process-global runtime
    (:func:`~repro.runtime.get_runtime`): one inline shard by default,
    ``4 x workers`` shards under a parallel
    :func:`~repro.runtime.runtime_session`.

    Parameters
    ----------
    trajectories:
        Per-account ``(X_i, Y_i)`` series pairs (task indexes and
        already-rescaled timestamps), in the caller's account order.
        Accounts with empty series yield ``NaN`` rows/columns.
    window, normalized:
        Forwarded to :func:`repro.timeseries.dtw.dtw_distance`.
    prune_threshold:
        The AG-TR edge threshold ``phi``.  When given (and the raw
        unnormalized cost form is in use) pairs provably at or above the
        threshold are recorded as ``inf`` instead of fully computed —
        the strict ``< phi`` threshold graph, and hence the grouping, is
        unchanged.  ``None`` computes every pair exactly.

    Returns
    -------
    (matrix, stats):
        The score matrix and the computed/pruned/shortcut disposition
        counts.  The counts also feed the ``dtw.pairs_computed`` /
        ``dtw.pairs_pruned`` / ``dtw.pairs_shortcut`` metrics.
    """
    runtime = get_runtime()
    xs = [np.asarray(x, dtype=float) for x, _ in trajectories]
    ys = [np.asarray(y, dtype=float) for _, y in trajectories]
    n = len(xs)
    total = pair_count(n)
    n_shards = default_shard_count(total, runtime.workers, min_per_shard=8)
    payloads = [
        (lo, hi, n, xs, ys, window, normalized, prune_threshold)
        for lo, hi in pair_shards(n, n_shards)
    ]
    results = runtime.map(
        _dissimilarity_shard, payloads, label="agtr.dissimilarity_shard"
    )
    stats = PairwiseStats(*(sum(column) for column in zip(*(r[1] for r in results))))
    values = np.concatenate([r[0] for r in results])
    matrix = np.zeros((n, n))
    if total:
        i, j = pair_index_to_ij(np.arange(total, dtype=np.int64), n)
        matrix[i, j] = values
        matrix[j, i] = values
    metrics = get_metrics()
    histogram = metrics.histogram("dtw.cells")
    for _, _, (calls, abandoned), cells in results:
        metrics.counter("dtw.calls").inc(calls)
        metrics.counter("dtw.abandoned").inc(abandoned)
        for observed in cells:
            histogram.observe(observed)
    metrics.counter("dtw.pairs_computed").inc(stats.computed)
    metrics.counter("dtw.pairs_pruned").inc(stats.pruned)
    metrics.counter("dtw.pairs_shortcut").inc(stats.shortcut)
    if stats.total:
        metrics.gauge("dtw.prune_hit_rate").set(
            (stats.pruned + stats.shortcut) / stats.total
        )
    return matrix, stats
