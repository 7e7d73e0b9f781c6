"""Unit tests for Algorithm 2: data grouping, Eq. 4/5, and the iteration."""

import numpy as np
import pytest

from repro.core.dataset import SensingDataset
from repro.core.framework import (
    GROUP_AGGREGATIONS,
    SybilResistantTruthDiscovery,
    aggregate_inverse_deviation,
    aggregate_mean,
    aggregate_median,
)
from repro.core.grouping import TrajectoryGrouper
from repro.core.types import Grouping
from repro.errors import DataValidationError
from repro.experiments.paperdata import SYBIL_ACCOUNTS, paper_example_dataset


class TestGroupAggregations:
    def test_single_value_identity(self):
        for fn in GROUP_AGGREGATIONS.values():
            assert fn(np.array([7.5])) == 7.5

    def test_constant_group(self):
        for fn in GROUP_AGGREGATIONS.values():
            assert fn(np.array([-50.0, -50.0, -50.0])) == pytest.approx(-50.0)

    def test_inverse_deviation_damps_outlier(self):
        values = np.array([10.0, 10.2, 9.8, 30.0])
        estimate = aggregate_inverse_deviation(values)
        assert estimate < aggregate_mean(values)

    def test_inverse_deviation_within_range(self):
        values = np.array([1.0, 5.0, 9.0])
        assert 1.0 <= aggregate_inverse_deviation(values) <= 9.0

    def test_mean_and_median(self):
        values = np.array([1.0, 2.0, 10.0])
        assert aggregate_mean(values) == pytest.approx(13.0 / 3)
        assert aggregate_median(values) == 2.0

    def test_registry_names(self):
        assert set(GROUP_AGGREGATIONS) == {"inverse_deviation", "mean", "median"}


class TestConstruction:
    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            SybilResistantTruthDiscovery(aggregation="geometric")

    def test_callable_aggregation_rejected(self):
        # The strategy is a registry name; the scalar functions are only
        # the per-cell reference, not an accepted argument.
        with pytest.raises(ValueError, match="unknown aggregation"):
            SybilResistantTruthDiscovery(aggregation=lambda values: float(values.max()))
        with pytest.raises(ValueError, match="unknown aggregation"):
            SybilResistantTruthDiscovery(aggregation=GROUP_AGGREGATIONS["mean"])

    def test_requires_grouper_or_grouping(self):
        ds = SensingDataset.from_matrix([[1.0]])
        with pytest.raises(DataValidationError, match="grouper"):
            SybilResistantTruthDiscovery().discover(ds)

    def test_rejects_empty_dataset(self):
        with pytest.raises(DataValidationError, match="empty"):
            SybilResistantTruthDiscovery().discover(
                SensingDataset([], []), grouping=Grouping.from_groups([])
            )


class TestDataGrouping:
    """Algorithm 2 lines 2-6 on the Table I example with oracle groups."""

    @pytest.fixture
    def result(self):
        ds = paper_example_dataset()
        grouping = Grouping.from_groups(
            [["1"], ["2"], ["3"], list(SYBIL_ACCOUNTS)]
        )
        return SybilResistantTruthDiscovery().discover(ds, grouping=grouping)

    def test_sybil_group_collapsed_to_one_value(self, result):
        # For T1 the Sybil group contributes exactly one grouped datum.
        sybil_index = result.grouping.group_index_of("4'")
        assert result.group_values["T1"][sybil_index] == pytest.approx(-50.0)

    def test_eq4_initial_weights(self, result):
        # T1 has 5 claimants: accounts 1, 3, and the three Sybil accounts.
        sybil_index = result.grouping.group_index_of("4'")
        honest_index = result.grouping.group_index_of("1")
        weights = result.initial_group_weights["T1"]
        assert weights[sybil_index] == pytest.approx(1 - 3 / 5)
        assert weights[honest_index] == pytest.approx(1 - 1 / 5)

    def test_groups_cover_all_accounts(self, result):
        assert result.grouping.accounts == set(paper_example_dataset().accounts)

    def test_attack_diminished(self, result):
        # With grouping, attacked estimates return to the honest range.
        for task in ("T1", "T3", "T4"):
            assert result.truths[task] < -65.0

    def test_unattacked_task_still_honest(self, result):
        assert result.truths["T2"] == pytest.approx(-81.0, abs=5.0)

    def test_cell_views_are_task_major_with_groups_in_order(self, paper_scenario):
        dataset = paper_scenario.dataset
        grouping = paper_scenario.user_partition
        result = SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)
        answered = [task for task in dataset.tasks if dataset.accounts_for_task(task)]
        assert list(result.group_values) == answered
        for task in answered:
            claimants = {
                result.grouping.group_index_of(a) for a in dataset.accounts_for_task(task)
            }
            assert list(result.group_values[task]) == sorted(claimants)
            assert list(result.initial_group_weights[task]) == sorted(claimants)


class TestIteration:
    def test_singleton_grouping_close_to_plain_td(self, simple_dataset):
        grouping = Grouping.singletons(simple_dataset.accounts)
        framework = SybilResistantTruthDiscovery()
        result = framework.discover(simple_dataset, grouping=grouping)
        assert result.truths["T1"] == pytest.approx(10.1, abs=0.5)

    def test_converges(self, simple_dataset):
        grouping = Grouping.singletons(simple_dataset.accounts)
        result = SybilResistantTruthDiscovery().discover(
            simple_dataset, grouping=grouping
        )
        assert result.converged
        assert len(result.truth_history) == result.iterations

    def test_truths_within_group_value_range(self, paper_dataset):
        grouping = Grouping.from_groups(
            [["1"], ["2"], ["3"], list(SYBIL_ACCOUNTS)]
        )
        result = SybilResistantTruthDiscovery().discover(
            paper_dataset, grouping=grouping
        )
        for task, estimate in result.truths.items():
            values = list(result.group_values[task].values())
            assert min(values) - 1e-9 <= estimate <= max(values) + 1e-9

    def test_grouping_with_extra_accounts_is_projected(self, simple_dataset):
        grouping = Grouping.from_groups(
            [list(simple_dataset.accounts) + ["ghost"]]
        )
        result = SybilResistantTruthDiscovery().discover(
            simple_dataset, grouping=grouping
        )
        assert "ghost" not in result.grouping.accounts

    def test_grouping_missing_accounts_completed_as_singletons(
        self, simple_dataset
    ):
        grouping = Grouping.from_groups([["good1", "good2"]])
        result = SybilResistantTruthDiscovery().discover(
            simple_dataset, grouping=grouping
        )
        assert result.grouping.group_of("wild") == {"wild"}

    def test_single_group_per_task_falls_back_to_group_value(self):
        # All claimants in one group: Eq. 4 weight is zero, Eq. 5 is 0/0,
        # so the estimate must fall back to the group's aggregated value.
        ds = SensingDataset.from_matrix([[10.0], [10.2], [9.8]])
        grouping = Grouping.from_groups([["a0", "a1", "a2"]])
        result = SybilResistantTruthDiscovery().discover(ds, grouping=grouping)
        assert result.truths["T1"] == pytest.approx(10.0, abs=0.3)

    def test_with_grouper_end_to_end(self, paper_dataset):
        framework = SybilResistantTruthDiscovery(TrajectoryGrouper())
        result = framework.discover(paper_dataset)
        # AG-TR isolates the attacker on the paper example, so the
        # attacked tasks recover.
        assert result.truths["T1"] < -65.0

    def test_as_truth_discovery_result_view(self, simple_dataset):
        grouping = Grouping.singletons(simple_dataset.accounts)
        result = SybilResistantTruthDiscovery().discover(
            simple_dataset, grouping=grouping
        )
        view = result.as_truth_discovery_result()
        assert view.truths == result.truths
        assert view.iterations == result.iterations


class TestAggregationModes:
    @pytest.mark.parametrize("mode", ["inverse_deviation", "mean", "median"])
    def test_all_modes_diminish_attack(self, paper_dataset, mode):
        grouping = Grouping.from_groups(
            [["1"], ["2"], ["3"], list(SYBIL_ACCOUNTS)]
        )
        result = SybilResistantTruthDiscovery(aggregation=mode).discover(
            paper_dataset, grouping=grouping
        )
        for task in ("T1", "T3", "T4"):
            assert result.truths[task] < -65.0
