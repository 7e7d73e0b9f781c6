"""Threshold graphs over pairwise account scores.

Both AG-TS and AG-TR reduce account grouping to the same construction
(Section IV-C):

* compute a pairwise score matrix over accounts — an *affinity* (higher =
  more suspicious, AG-TS Eq. 6) or a *dissimilarity* (lower = more
  suspicious, AG-TR Eq. 8);
* keep only edges passing a threshold (``A_ij > rho`` resp. ``D_ij < phi``);
* group by connected components; accounts in no component are singletons.

This module implements the two thresholding directions over a symmetric
score matrix and the component→grouping step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import AccountId, Grouping
from repro.graph.components import UndirectedGraph


def _validate_matrix(scores: np.ndarray, n: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (n, n):
        raise ValueError(
            f"score matrix must be {n}x{n} to match the account list, "
            f"got shape {scores.shape}"
        )
    if not np.allclose(scores, scores.T, equal_nan=True):
        raise ValueError("score matrix must be symmetric")
    return scores


def _threshold_graph(
    accounts: Sequence[AccountId], scores: np.ndarray, edges: np.ndarray
) -> UndirectedGraph[AccountId]:
    """The graph over ``accounts`` with an edge wherever ``edges[i, j]``.

    Edges come from the upper triangle in row-major order (``i < j``,
    then ``j``) and carry their score as the weight, so the graph's
    adjacency and its insertion order are those of a per-pair loop.
    """
    graph: UndirectedGraph[AccountId] = UndirectedGraph(accounts)
    rows, cols = np.nonzero(np.triu(edges, 1))
    for i, j, score in zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist()):
        graph.add_edge(accounts[i], accounts[j], weight=score)
    return graph


def graph_from_affinity(
    accounts: Sequence[AccountId], affinity: np.ndarray, threshold: float
) -> UndirectedGraph[AccountId]:
    """Edges where affinity is *strictly greater* than the threshold.

    Matches AG-TS: "only edges that are greater than a threshold rho are
    included".  ``NaN`` scores never produce an edge.
    """
    affinity = _validate_matrix(affinity, len(accounts))
    return _threshold_graph(accounts, affinity, affinity > threshold)


def graph_from_dissimilarity(
    accounts: Sequence[AccountId], dissimilarity: np.ndarray, threshold: float
) -> UndirectedGraph[AccountId]:
    """Edges where dissimilarity is *strictly less* than the threshold.

    Matches AG-TR: "only edges that are less than a threshold phi are
    included".  ``NaN`` scores never produce an edge.
    """
    dissimilarity = _validate_matrix(dissimilarity, len(accounts))
    return _threshold_graph(accounts, dissimilarity, dissimilarity < threshold)


def groups_from_components(graph: UndirectedGraph[AccountId]) -> Grouping:
    """Grouping whose groups are the graph's connected components.

    Isolated accounts come out as singleton groups, implementing step 4 of
    both grouping procedures.
    """
    return Grouping.from_groups(graph.connected_components())
