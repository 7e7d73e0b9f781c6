"""DTW lower-bound tests: validity, tightness, pruning correctness."""

import numpy as np
import pytest

from repro.core.grouping.trajectory import pairwise_trajectory_dissimilarity
from repro.obs import MetricsRegistry, set_metrics
from repro.timeseries.bounds import lb_kim
from repro.timeseries.dtw import dtw_distance


class TestLBKim:
    def test_is_lower_bound(self, rng):
        for _ in range(30):
            a = rng.normal(size=rng.integers(2, 10))
            b = rng.normal(size=rng.integers(2, 10))
            assert lb_kim(a, b) <= dtw_distance(a, b, normalized=False) + 1e-9

    def test_identical_series_zero(self):
        assert lb_kim([1, 2, 3], [1, 2, 3]) == 0.0

    def test_known_value(self):
        # endpoints (0 vs 2) and (3 vs 7): 4 + 16.
        assert lb_kim([0, 5, 3], [2, 9, 7]) == pytest.approx(20.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            lb_kim([], [1.0])


def _pruned_matrix(series, threshold):
    """Raw DTW costs pruned at ``threshold`` on AG-TR's scoring path.

    Each series becomes a trajectory with an all-zero timestamp series,
    whose bound and DTW cost are zero, so the Eq. 8 score is the series'
    raw DTW cost.  Returns the matrix and the ``dtw.pairs_*`` counters
    the scoring recorded.
    """
    trajectories = [(s, np.zeros(len(s))) for s in series]
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        matrix = pairwise_trajectory_dissimilarity(trajectories, prune_threshold=threshold)
    finally:
        set_metrics(previous)
    return matrix, {
        name: registry.counter(f"dtw.pairs_{name}").value
        for name in ("computed", "pruned", "shortcut")
    }


class TestPrunedMatrix:
    def test_pruning_preserves_below_threshold_entries(self, rng):
        series = [rng.normal(size=8) for _ in range(6)]
        threshold = 5.0
        matrix, _ = _pruned_matrix(series, threshold)
        for i in range(6):
            for j in range(i + 1, 6):
                exact = dtw_distance(series[i], series[j], normalized=False)
                if exact < threshold:
                    # Must not have been pruned, and must be exact.
                    assert matrix[i, j] == exact
                else:
                    # Either computed exactly or pruned to inf — both
                    # classify the pair as "no edge" of the < phi graph.
                    assert matrix[i, j] >= threshold

    def test_prunes_obviously_distant_pairs(self):
        near = [np.zeros(10), np.zeros(10) + 0.01]
        far = [np.full(10, 100.0)]
        matrix, pairs = _pruned_matrix(near + far, threshold=1.0)
        assert pairs["pruned"] >= 2  # both (near, far) pairs skipped
        assert matrix[0, 2] == np.inf

    def test_counters_cover_all_pairs(self, rng):
        series = [rng.normal(size=5) for _ in range(5)]
        _, pairs = _pruned_matrix(series, threshold=3.0)
        assert sum(pairs.values()) == 10
