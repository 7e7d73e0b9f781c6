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

Two practical knobs, both matching the paper's Fig. 4 numbers:

* DTW is used in its *unnormalized* total-cost form — the walkthrough
  matrices (e.g. ``DTW(X_1, X_2) = 2``) are raw accumulated costs, not the
  path-length-normalized Eq. 7 distances;
* timestamps are rescaled to **hours** before DTW, putting the timestamp
  term on the ≪1 scale of Fig. 4(b) so a unit task-index mismatch
  dominates a few minutes of timing difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import SensingDataset
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping
from repro.graph.threshold import graph_from_dissimilarity, groups_from_components
from repro.obs import MetricsRegistry, get_metrics, get_tracer, set_metrics
from repro.timeseries.bounds import lb_kim_pairs, pair_lower_bound
from repro.timeseries.dtw import dtw_costs, dtw_distance

#: Seconds per hour — the default timestamp rescaling.
SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class PairwiseStats:
    """How AG-TR scoring disposed of its account pairs.

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


def pairwise_trajectory_dissimilarity(
    trajectories: Sequence[Tuple[np.ndarray, np.ndarray]],
    window: Optional[int] = None,
    normalized: bool = False,
    prune_threshold: Optional[float] = None,
) -> Tuple[np.ndarray, PairwiseStats]:
    """The full symmetric Eq. 8 dissimilarity matrix over all pairs.

    The upper-triangular pairs are scored with whole-array work: LB_Kim
    for every pair at once (re-bounded with LB_Keogh, pair by pair, only
    for the banded pairs LB_Kim leaves below ``phi``), then one batched
    DTW per Eq. 8 term over the pairs still standing
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
    window, normalized:
        Forwarded to :func:`repro.timeseries.dtw.dtw_distance`.
    prune_threshold:
        The AG-TR edge threshold ``phi``.  When given (and the raw
        unnormalized cost form is in use) pairs provably at or above the
        threshold are recorded as ``inf`` instead of fully computed.
        ``None`` computes every pair exactly.

    Returns
    -------
    (matrix, stats):
        The score matrix and the computed/pruned/shortcut disposition
        counts.  The counts also feed the ``dtw.pairs_computed`` /
        ``dtw.pairs_pruned`` / ``dtw.pairs_shortcut`` metrics; the
        ``dtw.cells`` observations are recorded in the pair loop's call
        order (each pair's task term, then its timestamp term).
    """
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
    pruned = shortcut = 0

    def pairs(series, keep):
        return [series[a] for a in i[keep].tolist()], [series[b] for b in j[keep].tolist()]

    # The kernels record their dtw.* counts here; dtw.cells is recorded
    # below in the pair loop's order instead of the batches' order.
    scratch = MetricsRegistry()
    previous = set_metrics(scratch)
    try:
        todo = np.flatnonzero(live)
        second_ran = np.ones(len(todo), dtype=bool)
        if normalized:
            out[todo] = [
                dtw_distance(xs[a], xs[b], window=window, normalized=True)
                + dtw_distance(ys[a], ys[b], window=window, normalized=True)
                for a, b in zip(i[todo].tolist(), j[todo].tolist())
            ]
        elif prune_threshold is None:
            out[todo] = dtw_costs(*pairs(xs, todo), window) + dtw_costs(
                *pairs(ys, todo), window
            )
        else:
            threshold = prune_threshold
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
    stats = PairwiseStats(len(todo) - shortcut, pruned, shortcut)
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
    metrics.counter("dtw.pairs_computed").inc(stats.computed)
    metrics.counter("dtw.pairs_pruned").inc(stats.pruned)
    metrics.counter("dtw.pairs_shortcut").inc(stats.shortcut)
    if stats.total:
        metrics.gauge("dtw.prune_hit_rate").set(
            (stats.pruned + stats.shortcut) / stats.total
        )
    return matrix, stats


def trajectory_dissimilarity_matrix(
    dataset: SensingDataset,
    accounts: Optional[Sequence[AccountId]] = None,
    timestamp_scale: float = SECONDS_PER_HOUR,
    normalized: bool = False,
    window: Optional[int] = None,
    prune_threshold: Optional[float] = None,
) -> Tuple[Tuple[AccountId, ...], np.ndarray]:
    """Pairwise Eq. 8 dissimilarities over the dataset's accounts.

    The pair space is scored by
    :func:`pairwise_trajectory_dissimilarity`, which uses the
    :mod:`repro.timeseries.bounds` lower bounds when ``prune_threshold``
    is given.

    Parameters
    ----------
    dataset:
        Source of each account's trajectory.
    accounts:
        Optional explicit account order; defaults to all dataset accounts.
    timestamp_scale:
        Divisor applied to raw timestamps (seconds) before DTW; the
        default converts to hours as in the paper's walkthrough.
    normalized:
        If true use the path-length-normalized Eq. 7 distance instead of
        the raw total cost (the walkthrough uses raw costs).
    window:
        Optional Sakoe-Chiba band for long trajectories.
    prune_threshold:
        The AG-TR edge threshold ``phi``; when given (raw cost form
        only) pairs provably at or above it are recorded as ``inf``
        without running the full dynamic program — the strict ``< phi``
        threshold graph is unchanged.

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
    matrix, _ = pairwise_trajectory_dissimilarity(
        trajectories,
        window=window,
        normalized=normalized,
        prune_threshold=prune_threshold,
    )
    return order, matrix


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
    normalized:
        Use Eq. 7 normalized DTW instead of raw total cost.
    window:
        Optional Sakoe-Chiba band half-width.
    prune:
        Skip pairs whose :mod:`repro.timeseries.bounds`
        lower bound already reaches ``threshold`` (raw cost form only;
        the resulting grouping is provably unchanged).  Default on.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        timestamp_scale: float = SECONDS_PER_HOUR,
        normalized: bool = False,
        window: Optional[int] = None,
        prune: bool = True,
    ):
        self.threshold = threshold
        self.timestamp_scale = timestamp_scale
        self.normalized = normalized
        self.window = window
        self.prune = prune

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
                    normalized=self.normalized,
                    window=self.window,
                    prune_threshold=self.threshold if self.prune else None,
                )
            with tracer.span("grouping.threshold_graph"):
                graph = graph_from_dissimilarity(list(order), matrix, self.threshold)
            with tracer.span("grouping.components"):
                grouping = groups_from_components(graph)
            span.set("groups", len(grouping))
            return grouping
