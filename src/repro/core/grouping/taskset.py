"""AG-TS: account grouping by accomplished task set (Section IV-C).

A Sybil attacker who wants to sway several tasks must submit for each of
them from every account, so its accounts end up with near-identical task
sets.  AG-TS scores every account pair with the affinity of Eq. 6:

``A_ij = (T_ij - 2 * L_ij) * (T_ij + L_ij) / m``

where ``T_ij`` is the number of tasks both accounts accomplished, ``L_ij``
the number of tasks exactly one of them accomplished (their task sets'
symmetric difference — "either i or j has done alone"), and ``m`` the
total number of tasks.  Identical task sets maximize the affinity at
``|T_i|^2 / m``; disjoint ones drive it negative.

Pairs with affinity strictly above the threshold ``rho`` become edges of
an undirected graph; connected components (DFS) are the groups, and
isolated accounts are singletons.

Reproduction note: the paper's Fig. 3 walkthrough reports an affinity of
1.8 between account 1 and the attacker's accounts on the Table III data,
which Eq. 6 cannot produce under any reading of ``L`` we could construct
(the printed values are not derivable from the printed formula).  We
implement Eq. 6 literally; on the same data with ``rho = 1`` this yields
the groups ``{4', 4'', 4'''}, {1}, {2}, {3}`` — the attacker is still
isolated in one group, with *fewer* false-positives than the paper's
illustration (which groups account 1 with the attacker).  See
EXPERIMENTS.md (Fig. 3).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import SensingDataset, intern
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping
from repro.graph.threshold import graph_from_affinity, groups_from_components
from repro.obs import get_metrics, get_tracer


def taskset_affinity_matrix(
    dataset: SensingDataset,
    accounts: Optional[Sequence[AccountId]] = None,
) -> Tuple[Tuple[AccountId, ...], np.ndarray]:
    """Pairwise Eq. 6 affinities over the dataset's accounts.

    With ``M`` the 0/1 accounts x tasks membership matrix, the Gram
    matrix ``M @ M.T`` holds every ``T_ij`` at once (its diagonal the
    task-set sizes ``|T_i|``), and ``L_ij = |T_i| + |T_j| - 2 T_ij``.
    The counts are integers far below 2**53, so the float64 products
    are exact and the scores equal the per-pair set arithmetic bit for
    bit.

    Returns the account order used and the symmetric affinity matrix
    (diagonal zero; self-affinity is never used).
    """
    order: Tuple[AccountId, ...] = (
        tuple(accounts) if accounts is not None else dataset.accounts
    )
    m = len(dataset.tasks)
    if m == 0:
        raise ValueError("dataset has no tasks; affinity is undefined")
    n = len(order)
    # One row per dataset account, plus an all-zero last row that code -1
    # (an account without claims) selects.
    known = np.zeros((len(dataset.accounts) + 1, m))
    known[dataset._rows, dataset._cols] = 1.0
    membership = known[intern(order, dataset.accounts)[2]]
    get_metrics().counter("agts.pairs_scored").inc(n * (n - 1) // 2)
    together = membership @ membership.T
    sizes = together.diagonal()
    alone = sizes[:, np.newaxis] + sizes[np.newaxis, :] - 2.0 * together
    affinity = (together - 2.0 * alone) * (together + alone) / m
    np.fill_diagonal(affinity, 0.0)
    return order, affinity


class TaskSetGrouper(AccountGrouper):
    """AG-TS: threshold graph over task-set affinities.

    Parameters
    ----------
    threshold:
        The edge threshold ``rho``; higher values demand more task-set
        overlap before two accounts are linked (Section IV-C remarks).
        Default 1.0, the value used in the paper's walkthrough.
    """

    def __init__(self, threshold: float = 1.0):
        self.threshold = threshold

    def group(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
    ) -> Grouping:
        """Partition accounts by Eq. 6 task-set affinity.

        Scores every account pair with Eq. 6, keeps pairs strictly above
        ``rho`` as edges, and returns the connected components
        (``fingerprints`` are unused by this method).
        """
        tracer = get_tracer()
        with tracer.span("grouping.ag_ts", accounts=len(dataset.accounts)) as span:
            with tracer.span("grouping.score"):
                order, affinity = taskset_affinity_matrix(dataset)
            with tracer.span("grouping.threshold_graph"):
                graph = graph_from_affinity(list(order), affinity, self.threshold)
            with tracer.span("grouping.components"):
                grouping = groups_from_components(graph)
            span.set("groups", len(grouping))
            return grouping
