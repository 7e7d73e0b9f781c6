"""Unit tests for Algorithm 1: weight functionals and the iteration loop."""

import numpy as np
import pytest

from repro.core.dataset import SensingDataset
from repro.core.truth_discovery import (
    ConvergencePolicy,
    IterativeTruthDiscovery,
    crh_log_weights,
    exponential_weights,
    reciprocal_weights,
    weighted_median,
)
from repro.errors import ConvergenceError, DataValidationError


class TestWeightFunctions:
    @pytest.mark.parametrize(
        "fn", [crh_log_weights, reciprocal_weights, exponential_weights]
    )
    def test_monotonically_decreasing(self, fn):
        distances = np.array([0.1, 0.5, 1.0, 5.0, 20.0])
        weights = fn(distances)
        assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))

    @pytest.mark.parametrize(
        "fn", [crh_log_weights, reciprocal_weights, exponential_weights]
    )
    def test_non_negative(self, fn):
        weights = fn(np.array([0.0, 1.0, 100.0]))
        assert (weights >= 0).all()

    def test_crh_log_weights_known_value(self):
        # Two sources with distances 1 and e-1: total = e, so the first
        # weight is log(e/1) = 1.
        distances = np.array([1.0, np.e - 1.0])
        weights = crh_log_weights(distances)
        assert weights[0] == pytest.approx(1.0)

    def test_crh_clips_dominant_source_to_zero(self):
        # One source holds ~all distance mass: log(total/dist) ~ log(1) = 0,
        # and any negative excursion is clipped.
        weights = crh_log_weights(np.array([100.0, 1e-9]))
        assert weights[0] == pytest.approx(0.0, abs=1e-6)

    def test_crh_zero_distance_gets_largest_weight(self):
        weights = crh_log_weights(np.array([0.0, 1.0, 2.0]))
        assert weights[0] == weights.max()

    def test_reciprocal_weights_normalized(self):
        weights = reciprocal_weights(np.array([1.0, 2.0, 4.0]))
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] == pytest.approx(4 / 7)

    def test_exponential_weights_scale_validation(self):
        with pytest.raises(ValueError, match="scale"):
            exponential_weights(np.array([1.0]), scale=0.0)

    def test_exponential_weights_selectivity(self):
        loose = exponential_weights(np.array([0.0, 1.0]), scale=10.0)
        tight = exponential_weights(np.array([0.0, 1.0]), scale=0.1)
        assert tight[0] > loose[0]


class TestConvergencePolicy:
    def test_defaults(self):
        policy = ConvergencePolicy()
        assert policy.max_iterations == 100
        assert not policy.strict

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            ConvergencePolicy(max_iterations=0)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            ConvergencePolicy(tolerance=-1.0)


class TestIterativeTruthDiscovery:
    def test_rejects_empty_dataset(self):
        ds = SensingDataset([], [])
        with pytest.raises(DataValidationError, match="empty"):
            IterativeTruthDiscovery().discover(ds)

    def test_unanimous_sources_recover_exact_truth(self):
        ds = SensingDataset.from_matrix([[5.0, 7.0]] * 4)
        result = IterativeTruthDiscovery().discover(ds)
        assert result.truths["T1"] == pytest.approx(5.0)
        assert result.truths["T2"] == pytest.approx(7.0)
        assert result.converged

    def test_majority_outvotes_outlier(self, simple_dataset):
        result = IterativeTruthDiscovery().discover(simple_dataset)
        assert result.truths["T1"] == pytest.approx(10.1, abs=0.5)
        assert result.truths["T2"] == pytest.approx(20.0, abs=0.5)

    def test_outlier_gets_smallest_weight(self, simple_dataset):
        result = IterativeTruthDiscovery().discover(simple_dataset)
        assert result.weights["wild"] == min(result.weights.values())

    def test_unanswered_task_absent_from_truths(self):
        ds = SensingDataset.from_matrix([[1.0, np.nan], [2.0, np.nan]])
        result = IterativeTruthDiscovery().discover(ds)
        assert "T2" not in result.truths

    def test_history_tracks_iterations(self, simple_dataset):
        result = IterativeTruthDiscovery().discover(simple_dataset)
        assert len(result.truth_history) == result.iterations

    def test_strict_convergence_raises(self, simple_dataset):
        policy = ConvergencePolicy(max_iterations=1, tolerance=0.0, strict=True)
        with pytest.raises(ConvergenceError):
            IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)

    def test_strict_raises_exactly_at_budget_not_before(self, simple_dataset):
        # With tolerance 0 the loop can never converge: a strict policy
        # must run the full budget, then raise naming that budget.
        budget = 7
        policy = ConvergencePolicy(max_iterations=budget, tolerance=0.0, strict=True)
        with pytest.raises(ConvergenceError, match=str(budget)):
            IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)
        # The same budget without strict completes and reports it was spent.
        relaxed = ConvergencePolicy(max_iterations=budget, tolerance=0.0)
        result = IterativeTruthDiscovery(convergence=relaxed).discover(simple_dataset)
        assert result.iterations == budget
        assert not result.converged

    def test_truth_history_length_and_ordering(self, simple_dataset):
        result = IterativeTruthDiscovery().discover(simple_dataset)
        history = result.truth_history
        # One snapshot per iteration, each covering every answered task.
        assert len(history) == result.iterations
        assert all(len(row) == len(result.truths) for row in history)
        # The last snapshot is the final truth vector, in task-sorted order.
        _, _, tasks = simple_dataset.to_matrix()
        final = tuple(result.truths[tid] for tid in tasks)
        assert history[-1] == pytest.approx(final)
        # Converged run: successive snapshots approach the final iterate.
        distances = [
            max(abs(a - b) for a, b in zip(row, history[-1])) for row in history
        ]
        assert distances[0] >= distances[-1]

    def test_truth_history_capped_by_budget(self, simple_dataset):
        policy = ConvergencePolicy(max_iterations=3, tolerance=0.0)
        result = IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)
        assert len(result.truth_history) == 3

    def test_non_strict_returns_partial_result(self, simple_dataset):
        policy = ConvergencePolicy(max_iterations=1, tolerance=0.0)
        result = IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)
        assert not result.converged
        assert result.iterations == 1

    def test_truth_vector_alignment(self, simple_dataset):
        result = IterativeTruthDiscovery().discover(simple_dataset)
        vec = result.truth_vector(("T1", "T9", "T2"))
        assert vec[0] == pytest.approx(result.truths["T1"])
        assert np.isnan(vec[1])

    def test_truths_within_claim_range(self, simple_dataset):
        # Weighted averages with non-negative weights are convex
        # combinations of the claims.
        matrix, _, tasks = simple_dataset.to_matrix()
        result = IterativeTruthDiscovery().discover(simple_dataset)
        for j, tid in enumerate(tasks):
            claims = matrix[:, j]
            assert np.nanmin(claims) <= result.truths[tid] <= np.nanmax(claims)

    def test_single_account_dataset(self):
        ds = SensingDataset.from_matrix([[42.0]])
        result = IterativeTruthDiscovery().discover(ds)
        assert result.truths["T1"] == pytest.approx(42.0)


class TestWeightedMedian:
    def test_equal_weights_is_plain_median(self):
        values = np.array([3.0, 1.0, 2.0])
        assert weighted_median(values, np.ones(3)) == 2.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 5.0])
        assert weighted_median(values, weights) == 3.0

    def test_zero_total_weight_falls_back_to_median(self):
        values = np.array([1.0, 5.0, 9.0])
        assert weighted_median(values, np.zeros(3)) == 5.0

    def test_single_value(self):
        assert weighted_median(np.array([7.0]), np.array([0.1])) == 7.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_median(np.array([1.0]), np.array([-1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            weighted_median(np.array([]), np.array([]))

    def test_result_is_an_observed_value(self, rng):
        for _ in range(20):
            values = rng.normal(size=7)
            weights = rng.uniform(size=7)
            assert weighted_median(values, weights) in values


class TestMedianTruthEstimator:
    def test_validation(self):
        with pytest.raises(ValueError, match="truth_estimator"):
            IterativeTruthDiscovery(truth_estimator="mode")

    def test_resists_large_colluding_minority(self):
        from repro.core.dataset import SensingDataset

        ds = SensingDataset.from_matrix(
            [[10.0], [10.5], [9.5], [-50.0], [-50.0]]
        )
        robust = IterativeTruthDiscovery(truth_estimator="median").discover(ds)
        assert robust.truths["T1"] == pytest.approx(10.0, abs=1.0)

    def test_matches_mean_variant_on_clean_data(self, simple_dataset):
        mean_result = IterativeTruthDiscovery().discover(simple_dataset)
        median_result = IterativeTruthDiscovery(
            truth_estimator="median"
        ).discover(simple_dataset)
        for task in mean_result.truths:
            assert median_result.truths[task] == pytest.approx(
                mean_result.truths[task], abs=1.0
            )

    def test_estimates_are_observed_claims(self, simple_dataset):
        result = IterativeTruthDiscovery(truth_estimator="median").discover(
            simple_dataset
        )
        matrix, _, tasks = simple_dataset.to_matrix()
        for j, task in enumerate(tasks):
            assert result.truths[task] in matrix[:, j]
