"""DTW tests: known costs, path constraints, symmetry and bounds."""

import numpy as np
import pytest

from repro.core.grouping.trajectory import pairwise_trajectory_dissimilarity
from repro.timeseries.dtw import dtw_distance, warping_path


class TestKnownValues:
    def test_identical_series_zero(self):
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        # Equal-length constants offset by 1: every aligned pair costs 1.
        assert dtw_distance([0, 0, 0], [1, 1, 1], normalized=False) == pytest.approx(
            3.0
        )

    def test_paper_fig4a_value(self):
        # Table III: X_1 = (1,2,3,4), X_2 = (2,3); raw cost 2 per Fig. 4(a).
        assert dtw_distance(
            [1, 2, 3, 4], [2, 3], normalized=False
        ) == pytest.approx(2.0)

    def test_warping_absorbs_stretch(self):
        # A stretched copy aligns perfectly: zero cost despite different
        # lengths — the property the paper picks DTW for.
        assert dtw_distance([1, 2, 3], [1, 1, 2, 2, 3, 3]) == pytest.approx(0.0)

    def test_normalization_relation(self):
        a, b = [0.0, 5.0, 1.0], [1.0, 2.0]
        path, total = warping_path(a, b)
        assert dtw_distance(a, b) == pytest.approx(np.sqrt(total / len(path)))
        assert dtw_distance(a, b, normalized=False) == pytest.approx(total)

    def test_single_element_series(self):
        assert dtw_distance([3.0], [7.0], normalized=False) == pytest.approx(16.0)


class TestPathProperties:
    def test_path_endpoints(self):
        path, _ = warping_path([1, 2, 3], [4, 5])
        assert path[0] == (0, 0)
        assert path[-1] == (2, 1)

    def test_path_monotone_and_contiguous(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=7)
        path, _ = warping_path(a, b)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert 0 <= i2 - i1 <= 1
            assert 0 <= j2 - j1 <= 1
            assert (i2 - i1) + (j2 - j1) >= 1

    def test_path_length_bounds(self, rng):
        a = rng.normal(size=9)
        b = rng.normal(size=5)
        path, _ = warping_path(a, b)
        assert max(len(a), len(b)) <= len(path) <= len(a) + len(b) - 1

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dtw_distance([], [1.0])

    def test_2d_series_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            dtw_distance([[1.0, 2.0]], [1.0])


class TestSymmetryAndBounds:
    def test_symmetric(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=11)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_non_negative(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert dtw_distance(a, b) >= 0.0

    def test_dtw_at_most_euclidean_for_equal_lengths(self, rng):
        # The diagonal path is always available, so the raw DTW cost is
        # bounded by the lockstep squared distance.
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        lockstep = float(((a - b) ** 2).sum())
        assert dtw_distance(a, b, normalized=False) <= lockstep + 1e-12


def _distance_matrix(series):
    """Pairwise raw DTW costs on AG-TR's scoring path (zero timestamps)."""
    trajectories = [(s, np.zeros(len(s))) for s in series]
    return pairwise_trajectory_dissimilarity(trajectories)


class TestMatrix:
    def test_matrix_symmetric_zero_diagonal(self, rng):
        series = [rng.normal(size=rng.integers(3, 8)) for _ in range(5)]
        matrix = _distance_matrix(series)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matrix_empty_series_nan(self):
        matrix = _distance_matrix([[1.0, 2.0], []])
        assert np.isnan(matrix[0, 1])

    def test_matrix_values_match_pairwise(self, rng):
        series = [rng.normal(size=5) for _ in range(3)]
        matrix = _distance_matrix(series)
        assert matrix[0, 2] == dtw_distance(series[0], series[2], normalized=False)
