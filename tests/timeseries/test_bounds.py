"""DTW lower-bound tests: validity, tightness, pruning correctness."""

import numpy as np
import pytest

from repro.core.grouping.trajectory import pairwise_trajectory_dissimilarity
from repro.timeseries.bounds import envelope, lb_keogh, lb_kim
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


class TestEnvelope:
    def test_window_zero_is_identity(self):
        series = [3.0, 1.0, 4.0]
        lower, upper = envelope(series, 0)
        assert list(lower) == series
        assert list(upper) == series

    def test_window_widens_band(self):
        lower, upper = envelope([0.0, 10.0, 0.0], 1)
        assert list(upper) == [10.0, 10.0, 10.0]
        assert list(lower) == [0.0, 0.0, 0.0]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            envelope([1.0], -1)


class TestLBKeogh:
    def test_is_lower_bound_for_banded_dtw(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 15))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            window = int(rng.integers(0, 4))
            bound = lb_keogh(a, b, window)
            banded = dtw_distance(a, b, window=window, normalized=False)
            assert bound <= banded + 1e-9

    def test_query_inside_envelope_is_zero(self):
        candidate = [0.0, 10.0, 0.0]
        query = [5.0, 5.0, 5.0]
        assert lb_keogh(query, candidate, window=1) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            lb_keogh([1.0, 2.0], [1.0], window=1)

    def test_tight_for_identical(self):
        series = [1.0, 5.0, 2.0]
        assert lb_keogh(series, series, window=0) == 0.0


def _pruned_matrix(series, threshold, window=None):
    """Raw DTW costs pruned at ``threshold`` on AG-TR's scoring path.

    Each series becomes a trajectory with an all-zero timestamp series,
    whose bound and DTW cost are zero, so the Eq. 8 score is the series'
    raw DTW cost.
    """
    trajectories = [(s, np.zeros(len(s))) for s in series]
    return pairwise_trajectory_dissimilarity(
        trajectories, window=window, prune_threshold=threshold
    )


class TestPrunedMatrix:
    def test_pruning_preserves_below_threshold_entries(self, rng):
        series = [rng.normal(size=8) for _ in range(6)]
        threshold = 5.0
        matrix, _ = _pruned_matrix(series, threshold, window=2)
        for i in range(6):
            for j in range(i + 1, 6):
                exact = dtw_distance(
                    series[i], series[j], window=2, normalized=False
                )
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
        matrix, stats = _pruned_matrix(near + far, threshold=1.0, window=1)
        assert stats.pruned >= 2  # both (near, far) pairs skipped
        assert matrix[0, 2] == np.inf

    def test_counters_cover_all_pairs(self, rng):
        series = [rng.normal(size=5) for _ in range(5)]
        _, stats = _pruned_matrix(series, threshold=3.0, window=1)
        assert stats.computed + stats.pruned + stats.shortcut == 10
