"""k-means tests: seeding, convergence, repair, determinism."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import MAX_ABS_VALUE, DataValidationError
from repro.ml.elbow import sse_curve
from repro.ml.kmeans import KMeans


def _blobs(rng, centers, per_cluster=20, spread=0.1):
    points = []
    for center in centers:
        points.append(rng.normal(center, spread, size=(per_cluster, len(center))))
    return np.vstack(points)


class TestValidation:
    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError, match="n_clusters"):
            KMeans(n_clusters=0)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="n_init"):
            KMeans(n_clusters=1, n_init=0)

    def test_rejects_empty_points(self, rng):
        with pytest.raises(DataValidationError, match="empty"):
            KMeans(n_clusters=1, rng=rng).fit(np.empty((0, 2)))

    def test_rejects_k_greater_than_n(self, rng):
        with pytest.raises(DataValidationError, match="exceeds"):
            KMeans(n_clusters=3, rng=rng).fit(np.zeros((2, 2)))

    def test_rejects_non_2d(self, rng):
        with pytest.raises(DataValidationError, match="2-D"):
            KMeans(n_clusters=1, rng=rng).fit(np.zeros(5))


class TestClustering:
    def test_separated_blobs_recovered(self, rng):
        points = _blobs(rng, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        result = KMeans(n_clusters=3, rng=rng).fit(points)
        # Each blob of 20 points maps to a single label.
        for start in (0, 20, 40):
            assert len(set(result.labels[start : start + 20])) == 1
        assert result.converged

    def test_k1_centroid_is_mean(self, rng):
        points = rng.normal(size=(50, 3))
        result = KMeans(n_clusters=1, rng=rng).fit(points)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_inertia_matches_labels(self, rng):
        points = _blobs(rng, [(0.0, 0.0), (5.0, 5.0)])
        result = KMeans(n_clusters=2, rng=rng).fit(points)
        manual = ((points - result.centroids[result.labels]) ** 2).sum()
        assert result.inertia == pytest.approx(manual)

    def test_inertia_non_increasing_in_k(self, rng):
        points = rng.normal(size=(40, 4))
        inertias = [
            KMeans(n_clusters=k, rng=np.random.default_rng(0)).fit(points).inertia
            for k in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_n_gives_zero_inertia(self, rng):
        points = rng.normal(size=(6, 2))
        result = KMeans(n_clusters=6, rng=rng).fit(points)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_points_handled(self, rng):
        points = np.zeros((10, 2))
        result = KMeans(n_clusters=3, rng=rng).fit(points)
        assert result.inertia == pytest.approx(0.0)

    def test_deterministic_with_same_seed(self):
        points = np.random.default_rng(5).normal(size=(30, 2))
        one = KMeans(n_clusters=3, rng=np.random.default_rng(9)).fit(points)
        two = KMeans(n_clusters=3, rng=np.random.default_rng(9)).fit(points)
        assert np.array_equal(one.labels, two.labels)
        assert np.allclose(one.centroids, two.centroids)

    def test_result_k_property(self, rng):
        points = rng.normal(size=(10, 2))
        assert KMeans(n_clusters=4, rng=rng).fit(points).k == 4

    def test_all_clusters_populated(self, rng):
        # Empty-cluster repair must keep exactly k live clusters even on
        # adversarial data (one tight blob plus a couple of outliers).
        points = np.vstack(
            [np.zeros((20, 2)), [[100.0, 100.0]], [[101.0, 100.0]]]
        )
        result = KMeans(n_clusters=3, rng=rng).fit(points)
        assert len(set(result.labels.tolist())) == 3


class TestBadPoints:
    """Non-finite or overflowing coordinates raise a typed error before any
    arithmetic (no RuntimeWarning, no numpy ``ValueError``)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e101])
    def test_fit_rejects(self, rng, bad):
        points = rng.normal(size=(6, 3))
        points[4, 1] = bad
        with pytest.raises(DataValidationError, match="finite and at most 1e\\+100"):
            KMeans(n_clusters=2, rng=rng).fit(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_sse_curve_rejects(self, rng, bad):
        points = rng.normal(size=(6, 3))
        points[0, 0] = bad
        with pytest.raises(DataValidationError, match="finite"):
            sse_curve(points, rng=rng)

    def test_sse_curve_empty_and_k_max_errors_are_typed(self, rng):
        with pytest.raises(DataValidationError, match="empty"):
            sse_curve(np.empty((0, 2)), rng=rng)
        with pytest.raises(DataValidationError, match="k_max"):
            sse_curve(np.ones((3, 2)), k_max=0, rng=rng)

    def test_the_bound_itself_is_accepted(self, rng):
        points = np.array([[MAX_ABS_VALUE, 0.0], [-MAX_ABS_VALUE, 0.0], [0.0, 1.0]])
        result = KMeans(n_clusters=2, rng=rng).fit(points)
        assert np.isfinite(result.inertia)
        assert np.isfinite(sse_curve(points, rng=rng).sse).all()


def test_scan_memory_stays_bounded():
    """A 120-point scan (960 fits, k up to 120) runs in batches: padded to
    the largest k in one piece, its distance temporary alone would be
    about 0.9 GB."""
    rng = np.random.default_rng(3)
    points = _blobs(rng, rng.normal(size=(6, 8)) * 10, per_cluster=20, spread=1.0)
    assert points.shape == (120, 8)
    tracemalloc.start()
    try:
        sse_curve(points, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
