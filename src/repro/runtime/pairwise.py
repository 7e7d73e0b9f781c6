"""Sharded all-pairs DTW scoring for AG-TR account grouping.

AG-TR (Eqs. 7-8 DTW dissimilarity) scores the upper-triangular pair
space of the account population.  This module chunks that pair space
into shards (:mod:`repro.runtime.sharding`), scores each shard's block
with whole-array work in a **module-level worker function** (so shards
can run on a process pool), and merges the blocks back into the full
symmetric matrix in shard order.  A shard bounds all its pairs at once,
then runs the survivors through one batched DTW kernel
(:func:`repro.timeseries.dtw.dtw_costs`).  Measured on a 2-core machine
with the ~600-account population scenario (179,700 pairs), that takes
the matrix from 3.6 s with a per-pair, per-cell interpreted loop to
about 0.1 s at ``workers=1``; at that size a two-worker pool, start-up
included, is slower than inline.

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
edge in the strict ``< phi`` graph) without running the DTW dynamic
program; after the task-series DTW, a partial sum already at ``phi``
short-circuits the timestamp-series DTW the same way.  Both cuts only
ever replace values that could not have produced an edge, so the
thresholded graph — and therefore the grouping — is identical to the
full computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

    The range is scored with whole-array work: LB_Kim for every pair at
    once (re-bounded with LB_Keogh, pair by pair, only for the banded
    pairs LB_Kim leaves below ``phi``), then one batched DTW per Eq. 8
    term over the pairs still standing
    (:func:`repro.timeseries.dtw.dtw_costs`), the timestamp term
    budgeted at what the task term leaves below ``phi``.

    Returns the block, the pair dispositions, and the shard's DTW
    telemetry: the ``dtw.calls`` and ``dtw.abandoned`` counts and the
    ``dtw.cells`` observations in call order (each pair's task term,
    then its timestamp term).  The DTW kernels record into a scratch
    registry here, so the parent records each tally once whether the
    shard ran inline or in a pool worker.
    """
    from repro.timeseries.bounds import lb_kim_pairs, pair_lower_bound
    from repro.timeseries.dtw import dtw_costs, dtw_distance

    lo, hi, n, xs, ys, window, normalized, threshold = payload
    i, j = pair_index_to_ij(np.arange(lo, hi, dtype=np.int64), n)
    sizes = np.array([len(x) for x in xs], dtype=np.int64)
    live = (sizes[i] > 0) & (sizes[j] > 0)
    out = np.full(hi - lo, np.nan)
    pruned = shortcut = 0

    def pairs(series, keep):
        return [series[a] for a in i[keep].tolist()], [series[b] for b in j[keep].tolist()]

    scratch = MetricsRegistry()
    previous = set_metrics(scratch)
    try:
        if normalized:
            todo = np.flatnonzero(live)
            out[todo] = [
                dtw_distance(xs[a], xs[b], window=window, normalized=True)
                + dtw_distance(ys[a], ys[b], window=window, normalized=True)
                for a, b in zip(i[todo].tolist(), j[todo].tolist())
            ]
            second_ran = np.ones(len(todo), dtype=bool)
        elif threshold is None:
            todo = np.flatnonzero(live)
            out[todo] = dtw_costs(*pairs(xs, todo), window) + dtw_costs(
                *pairs(ys, todo), window
            )
            second_ran = np.ones(len(todo), dtype=bool)
        else:
            bound = lb_kim_pairs(xs, i, j)
            bound += lb_kim_pairs(ys, i, j)
            if window is not None:
                # LB_Keogh only ever raises a bound, so pairs LB_Kim
                # already puts at phi stay pruned without it.
                for t in np.flatnonzero(bound < threshold).tolist():
                    a, b = i[t], j[t]
                    bound[t] = pair_lower_bound(xs[a], xs[b], window) + pair_lower_bound(
                        ys[a], ys[b], window
                    )
            cut = bound >= threshold
            out[cut] = np.inf
            pruned = int(cut.sum())
            todo = np.flatnonzero(live & ~cut)
            out[todo] = np.inf
            partial = dtw_costs(*pairs(xs, todo), window, abandon=threshold)
            second_ran = partial < threshold
            # The timestamp term may early-abandon at the *remaining*
            # budget: a total >= phi can never form a < phi edge.
            second = dtw_costs(
                *pairs(ys, todo[second_ran]),
                window,
                abandon=threshold - partial[second_ran],
            )
            finite = ~np.isinf(second)
            out[todo[second_ran][finite]] = partial[second_ran][finite] + second[finite]
            shortcut = len(todo) - int(finite.sum())
    finally:
        set_metrics(previous)
    tallies = (
        scratch.counter("dtw.calls").value,
        scratch.counter("dtw.abandoned").value,
    )
    # dtw.cells in call order: each pair's task term, then its timestamp term.
    x_cells = sizes[i[todo]] * sizes[j[todo]]
    y_sizes = np.array([len(y) for y in ys], dtype=np.int64)
    y_cells = np.where(second_ran, y_sizes[i[todo]] * y_sizes[j[todo]], -1)
    cells = np.column_stack((x_cells, y_cells)).ravel()
    computed = len(todo) - shortcut
    return out, (computed, pruned, shortcut), tallies, cells[cells >= 0].tolist()


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
        Accounts with empty series yield ``NaN`` rows/columns; an
        account's two series must be both empty or both non-empty
        (``ValueError`` otherwise).
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
    for k, (x, y) in enumerate(zip(xs, ys)):
        if (len(x) == 0) != (len(y) == 0):
            raise ValueError(
                f"trajectory {k} has an empty task or timestamp series, not both"
            )
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
