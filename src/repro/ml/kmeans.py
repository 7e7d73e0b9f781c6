"""k-means clustering (Lloyd's algorithm with k-means++ seeding).

The paper groups device fingerprints with k-means (MacQueen) and notes its
``O(nkdi)`` complexity (Section IV-C, AG-FP).  This implementation:

* seeds with **k-means++** for robustness (plain random seeding makes the
  elbow curve noisy, which would destabilize AG-FP's k estimate);
* runs Lloyd iterations to a movement tolerance or an iteration cap;
* restarts ``n_init`` times and keeps the lowest-inertia run;
* handles empty clusters by re-seeding them on the point currently
  farthest from its centroid (a standard repair that keeps exactly ``k``
  clusters alive, matching the "k = number of devices" semantics).

All randomness flows through an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import DataValidationError
from repro.obs import get_metrics


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit.

    Attributes
    ----------
    labels:
        Cluster index per input row.
    centroids:
        ``(k, d)`` array of cluster centers.
    inertia:
        Sum of squared distances of points to their assigned centroid —
        the SSE the elbow method scans.
    iterations:
        Lloyd iterations of the winning restart.
    converged:
        Whether centroid movement dropped below tolerance.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centroids)


class KMeans:
    """Lloyd's k-means with k-means++ initialization.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k`` (the number of distinct devices, in
        AG-FP's usage).
    n_init:
        Independent restarts; the lowest-inertia run wins.
    max_iterations:
        Lloyd iteration cap per restart.
    tolerance:
        Converged when no centroid moves farther than this (Euclidean).
    rng:
        Random generator (seeding, restarts).  Defaults to a fixed-seed
        generator so results are reproducible unless a caller opts into
        its own randomness.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 8,
        max_iterations: int = 300,
        tolerance: float = 1e-8,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self._k = n_clusters
        self._n_init = n_init
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` (an ``(n, d)`` array) into ``k`` groups."""
        data = np.asarray(points, dtype=float)
        if data.ndim != 2:
            raise DataValidationError(f"points must be 2-D, got shape {data.shape}")
        n = len(data)
        if n == 0:
            raise DataValidationError("cannot cluster an empty point set")
        if self._k > n:
            raise DataValidationError(
                f"n_clusters={self._k} exceeds the number of points ({n})"
            )

        best: Optional[KMeansResult] = None
        for _ in range(self._n_init):
            result = self._fit_once(data)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        metrics = get_metrics()
        metrics.counter("kmeans.fits").inc()
        metrics.counter("kmeans.restarts").inc(self._n_init)
        metrics.counter("kmeans.lloyd_iterations").inc(best.iterations)
        return best

    # ------------------------------------------------------------------

    def _fit_once(self, data: np.ndarray) -> KMeansResult:
        centroids = self._seed_plus_plus(data)
        labels = np.zeros(len(data), dtype=int)
        converged = False
        iterations = 0
        for iterations in range(1, self._max_iterations + 1):
            labels = _assign(data, centroids)
            new_centroids = _update_centroids(data, labels, centroids)
            movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
            centroids = new_centroids
            if movement <= self._tolerance:
                converged = True
                break
        labels = _assign(data, centroids)
        inertia = float(((data - centroids[labels]) ** 2).sum())
        return KMeansResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            iterations=iterations,
            converged=converged,
        )

    def _seed_plus_plus(self, data: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling."""
        n = len(data)
        centroids = np.empty((self._k, data.shape[1]))
        first = int(self._rng.integers(n))
        centroids[0] = data[first]
        closest_sq = ((data - centroids[0]) ** 2).sum(axis=1)
        for idx in range(1, self._k):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with a centroid; any choice
                # is equivalent.
                choice = int(self._rng.integers(n))
            else:
                probabilities = closest_sq / total
                choice = int(self._rng.choice(n, p=probabilities))
            centroids[idx] = data[choice]
            new_sq = ((data - centroids[idx]) ** 2).sum(axis=1)
            closest_sq = np.minimum(closest_sq, new_sq)
        return centroids


def _assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment (ties go to the lowest index)."""
    distances = ((data[:, np.newaxis, :] - centroids[np.newaxis, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Mean of each cluster; empty clusters re-seed on the worst-fit point.

    The rows are stably sorted by label, so each cluster's members form one
    contiguous slice in their original order: the same layout as the
    boolean-indexed copy ``data[labels == c]``, which numpy's (pairwise)
    ``mean`` sums in the same order.  A one-member cluster takes its row
    plus 0.0, which is what ``mean`` returns for one row (its sum starts
    from 0.0, turning -0.0 into 0.0).  Segment sums (``np.add.at``,
    ``reduceat``) round differently and are not used.
    """
    k = len(previous)
    centroids = previous.copy()
    counts = np.bincount(labels, minlength=k)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(counts)
    starts = ends - counts
    single = counts == 1
    centroids[single] = data[order[starts[single]]] + 0.0
    grouped = data[order]
    for cluster in np.flatnonzero(counts > 1).tolist():
        centroids[cluster] = grouped[starts[cluster] : ends[cluster]].mean(axis=0)
    # Repair empty clusters after the means are in place so "farthest from
    # its centroid" is measured against the fresh geometry.  Labels never
    # name an empty cluster, so every repair sees the same residuals and
    # picks the same (first) worst-fit point.
    empty = counts == 0
    if empty.any():
        residuals = ((data - centroids[labels]) ** 2).sum(axis=1)
        centroids[empty] = data[int(residuals.argmax())]
    return centroids
