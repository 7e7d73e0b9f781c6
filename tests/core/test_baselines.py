"""Baseline aggregator tests (mean, median, GTM, CATD)."""

import numpy as np
import pytest

from repro.core.baselines import CATD, GTM, MeanAggregator, MedianAggregator
from repro.core.dataset import SensingDataset
from repro.core.truth_discovery import ConvergencePolicy
from repro.errors import ConvergenceError, DataValidationError


@pytest.fixture
def skewed_dataset():
    """Five honest accounts and one extreme outlier on one task."""
    return SensingDataset.from_matrix(
        [[10.0], [10.2], [9.9], [10.1], [9.8], [1000.0]],
    )


class TestMeanAggregator:
    def test_mean_value(self, skewed_dataset):
        result = MeanAggregator().discover(skewed_dataset)
        assert result.truths["T1"] == pytest.approx(175.0, abs=1.0)

    def test_all_weights_equal(self, simple_dataset):
        result = MeanAggregator().discover(simple_dataset)
        assert set(result.weights.values()) == {1.0}

    def test_skips_unanswered_tasks(self):
        ds = SensingDataset.from_matrix([[1.0, np.nan]])
        result = MeanAggregator().discover(ds)
        assert list(result.truths) == ["T1"]

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            MeanAggregator().discover(SensingDataset([], []))


class TestMedianAggregator:
    def test_median_resists_minority_outlier(self, skewed_dataset):
        result = MedianAggregator().discover(skewed_dataset)
        assert result.truths["T1"] == pytest.approx(10.05, abs=0.1)

    def test_median_fails_under_majority(self):
        ds = SensingDataset.from_matrix([[10.0], [-50.0], [-50.0], [-50.0]])
        result = MedianAggregator().discover(ds)
        assert result.truths["T1"] == pytest.approx(-50.0)

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            MedianAggregator().discover(SensingDataset([], []))


class TestGTM:
    def test_outlier_suppressed(self, skewed_dataset):
        result = GTM().discover(skewed_dataset)
        assert result.truths["T1"] == pytest.approx(10.0, abs=1.0)

    def test_noisy_source_gets_larger_variance(self, simple_dataset):
        result = GTM().discover(simple_dataset)
        # Weights are precisions: the wild source is the least precise.
        assert result.weights["wild"] == min(result.weights.values())

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            GTM(alpha=0.0)
        with pytest.raises(ValueError):
            GTM(beta=-1.0)

    def test_converges(self, simple_dataset):
        assert GTM().discover(simple_dataset).converged

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            GTM().discover(SensingDataset([], []))


class TestCATD:
    def test_outlier_suppressed(self, skewed_dataset):
        result = CATD().discover(skewed_dataset)
        assert result.truths["T1"] == pytest.approx(10.0, abs=1.0)

    def test_significance_validation(self):
        with pytest.raises(ValueError):
            CATD(significance=0.0)
        with pytest.raises(ValueError):
            CATD(significance=1.0)

    def test_small_claim_count_damped(self):
        # Two sources agree on T1; one of them also nails T2 and T3.
        # The chi-squared quantile grows with claim count, so the
        # many-claim source earns the higher weight even at equal error.
        ds = SensingDataset.from_matrix(
            [
                [10.0, 20.0, 30.0],
                [10.0, np.nan, np.nan],
                [10.4, 20.4, 30.4],
            ],
            account_ids=["veteran", "rookie", "other"],
        )
        result = CATD().discover(ds)
        assert result.weights["veteran"] > result.weights["rookie"]

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            CATD().discover(SensingDataset([], []))


class TestCrossAlgorithm:
    def test_all_baselines_agree_on_unanimous_data(self):
        ds = SensingDataset.from_matrix([[3.0, -7.0]] * 5)
        for algorithm in (MeanAggregator(), MedianAggregator(), GTM(), CATD()):
            truths = algorithm.discover(ds).truths
            assert truths["T1"] == pytest.approx(3.0)
            assert truths["T2"] == pytest.approx(-7.0)


class TestStrictConvergence:
    """GTM and CATD share CRH's loop, so ``strict`` applies to them too."""

    @pytest.mark.parametrize("engine, name", [(GTM, "gtm"), (CATD, "catd")])
    def test_strict_raises_when_budget_runs_out(self, simple_dataset, engine, name):
        policy = ConvergencePolicy(max_iterations=1, tolerance=0.0, strict=True)
        with pytest.raises(ConvergenceError, match=f"{name} did not converge in 1"):
            engine(convergence=policy).discover(simple_dataset)
