"""Reference k-means centroid update: one boolean scan per cluster.

A test-only oracle for :func:`repro.ml.kmeans._update_centroids`: each
cluster's mean from its boolean-indexed member copy, then the empty-cluster
repair one cluster at a time.  It shares no code with the sort-based update
it checks.
"""

from __future__ import annotations

import numpy as np


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
