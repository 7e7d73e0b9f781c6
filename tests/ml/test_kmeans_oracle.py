"""The sort-based centroid update equals the per-cluster oracle bit for bit."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import kmeans
from repro.ml.elbow import sse_curve
from repro.ml.kmeans import KMeans, _update_centroids
from tests.ml.kmeans_oracle import oracle_update_centroids

# Magnitudes from 1e-6 to 1e6 and exact (signed) zeros, so rounding,
# cancellation and the sign of a zero mean all show.
scales = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])


@st.composite
def partitions(draw):
    """Points, labels and previous centroids with empty, one-member and
    large clusters (``d = 1`` columns of 8+ members use pairwise sums)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 1, 2, 3, 8]))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 80))
    used = draw(st.integers(1, k))
    # Skewed draws make some clusters large and leave others empty.
    weights = rng.random(used) ** 3 + 1e-3
    labels = rng.choice(used, size=n, p=weights / weights.sum())
    labels = rng.permutation(k)[labels]
    data = rng.normal(size=(n, d)) * draw(scales)
    if draw(st.booleans()):
        data[rng.random((n, d)) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    previous = rng.normal(size=(k, d))
    return data, labels, previous


@given(partitions())
@settings(max_examples=300, deadline=None)
def test_update_equals_the_per_cluster_oracle(case):
    data, labels, previous = case
    got = _update_centroids(data, labels, previous)
    assert got.tobytes() == oracle_update_centroids(data, labels, previous).tobytes()


def test_partitions_cover_the_degenerate_clusters():
    """The strategy reaches every case the sort-based update special-cases."""
    seen = set()

    @given(partitions())
    @settings(max_examples=300, deadline=None, database=None)
    def collect(case):
        data, labels, previous = case
        counts = np.bincount(labels, minlength=len(previous))
        seen.update(
            name
            for name, hit in (
                ("empty", (counts == 0).any()),
                ("single", (counts == 1).any()),
                ("d1_pairwise", data.shape[1] == 1 and (counts >= 8).any()),
            )
            if hit
        )

    collect()
    assert seen == {"empty", "single", "d1_pairwise"}


@st.composite
def point_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    d = draw(st.sampled_from([1, 2, 8]))
    blobs = rng.normal(size=(draw(st.integers(1, 4)), d)) * 5
    points = blobs[rng.integers(len(blobs), size=n)] + rng.normal(size=(n, d))
    return points * draw(scales)


@given(point_sets(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_sse_curve_and_labels_equal_the_oracle_update(points, seed):
    k = max(1, len(points) // 3)
    new_curve = sse_curve(points, n_init=2, rng=np.random.default_rng(seed))
    new_fit = KMeans(k, n_init=2, rng=np.random.default_rng(seed)).fit(points)
    with mock.patch.object(kmeans, "_update_centroids", oracle_update_centroids):
        old_curve = sse_curve(points, n_init=2, rng=np.random.default_rng(seed))
        old_fit = KMeans(k, n_init=2, rng=np.random.default_rng(seed)).fit(points)
    assert new_curve.sse == old_curve.sse
    assert new_curve.k == old_curve.k
    assert new_fit.labels.tobytes() == old_fit.labels.tobytes()
    assert new_fit.centroids.tobytes() == old_fit.centroids.tobytes()
    assert new_fit.iterations == old_fit.iterations
