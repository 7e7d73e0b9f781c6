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

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import SensingDataset
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping
from repro.graph.threshold import graph_from_dissimilarity, groups_from_components
from repro.obs import get_metrics, get_tracer
from repro.runtime.pairwise import sharded_trajectory_dissimilarity

#: Seconds per hour — the default timestamp rescaling.
SECONDS_PER_HOUR = 3600.0


def trajectory_dissimilarity_matrix(
    dataset: SensingDataset,
    accounts: Optional[Sequence[AccountId]] = None,
    timestamp_scale: float = SECONDS_PER_HOUR,
    normalized: bool = False,
    window: Optional[int] = None,
    prune_threshold: Optional[float] = None,
) -> Tuple[Tuple[AccountId, ...], np.ndarray]:
    """Pairwise Eq. 8 dissimilarities over the dataset's accounts.

    The pair space is scored by the sharded runtime
    (:func:`repro.runtime.pairwise.sharded_trajectory_dissimilarity`) on
    the process-global executor: each shard owns a contiguous pair
    range, reuses the :mod:`repro.timeseries.bounds` lower bounds when
    ``prune_threshold`` is given, and the merged matrix is identical for
    any worker count.

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
    if normalized:
        prune_threshold = None  # bounds only hold for raw accumulated costs
    matrix, _ = sharded_trajectory_dissimilarity(
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
        Let the runtime skip pairs whose :mod:`repro.timeseries.bounds`
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
        with get_tracer().span(
            "grouping.ag_tr", accounts=len(dataset.accounts)
        ) as span:
            order, matrix = trajectory_dissimilarity_matrix(
                dataset,
                timestamp_scale=self.timestamp_scale,
                normalized=self.normalized,
                window=self.window,
                prune_threshold=self.threshold if self.prune else None,
            )
            graph = graph_from_dissimilarity(list(order), matrix, self.threshold)
            grouping = groups_from_components(graph)
            span.set("groups", len(grouping))
            return grouping
