"""Reference k-means: one restart at a time, one cluster at a time.

A test-only oracle for :mod:`repro.ml.kmeans`, which runs every fit of an
elbow scan as one batch.  Here each restart is seeded by drawing from the
generator as it goes (``integers`` for the first centroid, then
``Generator.choice`` with D^2 probabilities, or ``integers`` once every
point coincides with a chosen centroid), and then runs its own Lloyd loop.
Each cluster's mean comes from its boolean-indexed member copy and empty
clusters are repaired one at a time.  It shares no code with the batched
routine it checks.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

MAX_ITERATIONS = 300
TOLERANCE = 1e-8


class OracleFit(NamedTuple):
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool


def oracle_fit(
    data: np.ndarray, k: int, n_init: int, rng: np.random.Generator
) -> OracleFit:
    """The lowest-inertia of ``n_init`` restarts; the first one wins a tie."""
    best: Optional[OracleFit] = None
    for _ in range(n_init):
        result = _fit_once(data, k, rng)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def oracle_sse(
    data: np.ndarray, k_max: int, n_init: int, rng: np.random.Generator
) -> List[OracleFit]:
    """The best fit for every ``k`` in ``1..k_max``, one after another."""
    return [oracle_fit(data, k, n_init, rng) for k in range(1, k_max + 1)]


def _fit_once(data: np.ndarray, k: int, rng: np.random.Generator) -> OracleFit:
    centroids = _seed_plus_plus(data, k, rng)
    labels = np.zeros(len(data), dtype=int)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        labels = _assign(data, centroids)
        new_centroids = oracle_update_centroids(data, labels, centroids)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement <= TOLERANCE:
            converged = True
            break
    labels = _assign(data, centroids)
    inertia = float(((data - centroids[labels]) ** 2).sum())
    return OracleFit(labels, centroids, inertia, iterations, converged)


def _seed_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[int(rng.integers(n))]
    closest_sq = ((data - centroids[0]) ** 2).sum(axis=1)
    for idx in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centroids[idx] = data[choice]
        new_sq = ((data - centroids[idx]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, new_sq)
    return centroids


def _assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    distances = ((data[:, np.newaxis, :] - centroids[np.newaxis, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


def oracle_update_centroids(
    data: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
) -> np.ndarray:
    """Mean of each cluster; empty clusters re-seed on the worst-fit point."""
    k = len(previous)
    centroids = previous.copy()
    for cluster in range(k):
        members = data[labels == cluster]
        if len(members) > 0:
            centroids[cluster] = members.mean(axis=0)
    # Repair empty clusters after the means are in place so "farthest from
    # its centroid" is measured against the fresh geometry.
    for cluster in range(k):
        if (labels == cluster).any():
            continue
        residuals = ((data - centroids[labels]) ** 2).sum(axis=1)
        worst = int(residuals.argmax())
        centroids[cluster] = data[worst]
    return centroids
