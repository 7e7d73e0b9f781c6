"""AG-TR: account grouping by trajectory (Section IV-C).

An account's submissions form two time series: the *task series* ``X_i``
(which tasks, in submission order, as numeric task indexes) and the
*timestamp series* ``Y_i`` (when).  Accounts of one Sybil attacker walk
the same physical route with the same phone(s), so both series nearly
coincide — even when legitimate users share a task set, their *timing*
differs.  The pairwise dissimilarity is Eq. 8:

``D_ij = DTW(X_i, X_j) + DTW(Y_i, Y_j)``

computed with dynamic time warping so series of different lengths compare
naturally.  Pairs strictly below the threshold ``phi`` become graph edges;
DFS connected components are the groups.

Two conventions, both matching the paper's Fig. 4 numbers:

* DTW is used in its *unnormalized* total-cost form — the walkthrough
  matrices (e.g. ``DTW(X_1, X_2) = 2``) are raw accumulated costs, not the
  path-length-normalized Eq. 7 distances;
* timestamps are rescaled to **hours** before DTW, putting the timestamp
  term on the ≪1 scale of Fig. 4(b) so a unit task-index mismatch
  dominates a few minutes of timing difference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import SensingDataset
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping
from repro.graph.threshold import graph_from_dissimilarity, groups_from_components
from repro.obs import MetricsRegistry, get_metrics, get_tracer, set_metrics
from repro.timeseries.bounds import lb_kim_pairs
from repro.timeseries.dtw import dtw_costs

#: Seconds per hour — the default timestamp rescaling.
SECONDS_PER_HOUR = 3600.0


def pairwise_trajectory_dissimilarity(
    trajectories: Sequence[Tuple[np.ndarray, np.ndarray]],
    prune_threshold: Optional[float] = None,
) -> np.ndarray:
    """The full symmetric Eq. 8 dissimilarity matrix over all pairs.

    The upper-triangular pairs are scored with whole-array work: LB_Kim
    for every pair at once, then one batched DTW per Eq. 8 term over the
    pairs LB_Kim leaves below ``phi``
    (:func:`repro.timeseries.dtw.dtw_costs`), the timestamp term
    budgeted at what the task term leaves below ``phi``.  Both cuts only
    ever replace values that could not have produced an edge, so the
    strict ``< phi`` threshold graph, and hence the grouping, is that of
    the full computation.

    Parameters
    ----------
    trajectories:
        Per-account ``(X_i, Y_i)`` series pairs (task indexes and
        already-rescaled timestamps), in the caller's account order.
        Accounts with empty series yield ``NaN`` rows/columns; an
        account's two series must be both empty or both non-empty
        (``ValueError`` otherwise).
    prune_threshold:
        The AG-TR edge threshold ``phi``: pairs provably at or above it
        are recorded as ``inf`` instead of fully computed.  ``None``
        (an infinite threshold) computes every pair exactly.

    Returns
    -------
    matrix:
        The score matrix of raw DTW costs.  The pair dispositions feed
        the ``dtw.pairs_computed`` / ``dtw.pairs_pruned`` /
        ``dtw.pairs_shortcut`` counters; the ``dtw.cells`` observations
        are recorded in pair order (each pair's task term, then its
        timestamp term).
    """
    threshold = np.inf if prune_threshold is None else prune_threshold
    xs = [np.asarray(x, dtype=float) for x, _ in trajectories]
    ys = [np.asarray(y, dtype=float) for _, y in trajectories]
    for k, (x, y) in enumerate(zip(xs, ys)):
        if (len(x) == 0) != (len(y) == 0):
            raise ValueError(
                f"trajectory {k} has an empty task or timestamp series, not both"
            )
    n = len(xs)
    i, j = np.triu_indices(n, 1)
    sizes = np.array([len(x) for x in xs], dtype=np.int64)
    live = (sizes[i] > 0) & (sizes[j] > 0)
    out = np.full(len(i), np.nan)

    def pairs(series, keep):
        return [series[a] for a in i[keep].tolist()], [series[b] for b in j[keep].tolist()]

    # The kernels record their dtw.* counts here; dtw.cells is recorded
    # below in pair order instead of the batches' order.
    scratch = MetricsRegistry()
    previous = set_metrics(scratch)
    try:
        bound = lb_kim_pairs(xs, i, j)
        bound += lb_kim_pairs(ys, i, j)
        cut = bound >= threshold
        out[cut] = np.inf
        pruned = int(cut.sum())
        todo = np.flatnonzero(live & ~cut)
        out[todo] = np.inf
        partial = dtw_costs(*pairs(xs, todo), abandon=threshold)
        second_ran = partial < threshold
        # The timestamp term may early-abandon at the *remaining*
        # budget: a total >= phi can never form a < phi edge.
        second = dtw_costs(
            *pairs(ys, todo[second_ran]), abandon=threshold - partial[second_ran]
        )
        finite = ~np.isinf(second)
        out[todo[second_ran][finite]] = partial[second_ran][finite] + second[finite]
    finally:
        set_metrics(previous)
    computed = int(finite.sum())
    shortcut = len(todo) - computed
    matrix = np.zeros((n, n))
    matrix[i, j] = out
    matrix[j, i] = out

    metrics = get_metrics()
    metrics.counter("dtw.calls").inc(scratch.counter("dtw.calls").value)
    metrics.counter("dtw.abandoned").inc(scratch.counter("dtw.abandoned").value)
    x_cells = sizes[i[todo]] * sizes[j[todo]]
    y_sizes = np.array([len(y) for y in ys], dtype=np.int64)
    y_cells = np.where(second_ran, y_sizes[i[todo]] * y_sizes[j[todo]], -1)
    cells = np.column_stack((x_cells, y_cells)).ravel()
    histogram = metrics.histogram("dtw.cells")
    for observed in cells[cells >= 0].tolist():
        histogram.observe(observed)
    metrics.counter("dtw.pairs_computed").inc(computed)
    metrics.counter("dtw.pairs_pruned").inc(pruned)
    metrics.counter("dtw.pairs_shortcut").inc(shortcut)
    scored = len(todo) + pruned
    if scored:
        metrics.gauge("dtw.prune_hit_rate").set((pruned + shortcut) / scored)
    return matrix


def trajectory_dissimilarity_matrix(
    dataset: SensingDataset,
    accounts: Optional[Sequence[AccountId]] = None,
    timestamp_scale: float = SECONDS_PER_HOUR,
    prune_threshold: Optional[float] = None,
) -> Tuple[Tuple[AccountId, ...], np.ndarray]:
    """Pairwise Eq. 8 dissimilarities over the dataset's accounts.

    The pair space is scored by
    :func:`pairwise_trajectory_dissimilarity`.

    Parameters
    ----------
    dataset:
        Source of each account's trajectory.
    accounts:
        Optional explicit account order; defaults to all dataset accounts.
    timestamp_scale:
        Divisor applied to raw timestamps (seconds) before DTW; the
        default converts to hours as in the paper's walkthrough.
    prune_threshold:
        The AG-TR edge threshold ``phi``; when given, pairs provably at
        or above it are recorded as ``inf`` without running the full
        dynamic program — the strict ``< phi`` threshold graph is
        unchanged.  ``None`` computes every pair exactly.

    Returns
    -------
    (order, matrix):
        The account order and the symmetric dissimilarity matrix.
        Accounts with no observations yield ``NaN`` rows/columns (no
        trajectory evidence), which the threshold graph treats as
        no-edge.  Pruned pairs hold ``inf`` (also no-edge).
    """
    if timestamp_scale <= 0:
        raise ValueError(f"timestamp_scale must be positive, got {timestamp_scale}")
    order: Tuple[AccountId, ...] = (
        tuple(accounts) if accounts is not None else dataset.accounts
    )
    trajectories = []
    for account in order:
        xs, ys = dataset.trajectory(account)
        trajectories.append((xs, ys / timestamp_scale))
    n = len(order)
    get_metrics().counter("agtr.pairs_scored").inc(n * (n - 1) // 2)
    return order, pairwise_trajectory_dissimilarity(trajectories, prune_threshold)


class TrajectoryGrouper(AccountGrouper):
    """AG-TR: threshold graph over DTW trajectory dissimilarities.

    Parameters
    ----------
    threshold:
        The edge threshold ``phi``; lower values demand more trajectory
        similarity before linking two accounts.  Default 1.0, the paper's
        walkthrough value.
    timestamp_scale:
        Timestamp rescaling divisor (default: seconds → hours).

    Pairs whose :mod:`repro.timeseries.bounds` lower bound or partial
    DTW cost already reaches ``threshold`` are skipped; the grouping is
    provably that of the exact matrix.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        timestamp_scale: float = SECONDS_PER_HOUR,
    ):
        self.threshold = threshold
        self.timestamp_scale = timestamp_scale

    def group(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
    ) -> Grouping:
        """Partition accounts by Eq. 7/8 trajectory dissimilarity.

        Computes the Eq. 8 sum of the two DTW terms (Eq. 7 defines the
        normalized per-pair distance) for every account pair, keeps
        pairs strictly below ``phi`` as edges, and returns the connected
        components (``fingerprints`` are unused by this method).
        """
        tracer = get_tracer()
        with tracer.span("grouping.ag_tr", accounts=len(dataset.accounts)) as span:
            with tracer.span("grouping.score"):
                order, matrix = trajectory_dissimilarity_matrix(
                    dataset,
                    timestamp_scale=self.timestamp_scale,
                    prune_threshold=self.threshold,
                )
            with tracer.span("grouping.threshold_graph"):
                graph = graph_from_dissimilarity(list(order), matrix, self.threshold)
            with tracer.span("grouping.components"):
                grouping = groups_from_components(graph)
            span.set("groups", len(grouping))
            return grouping
