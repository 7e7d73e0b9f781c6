"""AG-TR tests: DTW dissimilarities (Eq. 8) and threshold grouping."""

import numpy as np
import pytest

from repro.core.dataset import SensingDataset
from repro.core.grouping.trajectory import (
    TrajectoryGrouper,
    trajectory_dissimilarity_matrix,
)
from repro.experiments.paperdata import TABLE1_ACCOUNTS, paper_example_dataset
from repro.graph.threshold import graph_from_dissimilarity, groups_from_components
from repro.obs import get_metrics
from repro.timeseries.dtw import dtw_distance


def _serial_dissimilarity_reference(dataset, timestamp_scale=3600.0):
    """Eq. 8 with a per-pair dtw_distance loop."""
    trajectories = [
        (xs, ys / timestamp_scale)
        for xs, ys in (dataset.trajectory(a) for a in dataset.accounts)
    ]
    n = len(trajectories)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            (xi, yi), (xj, yj) = trajectories[i], trajectories[j]
            if len(xi) == 0 or len(xj) == 0:
                score = np.nan
            else:
                score = dtw_distance(xi, xj, normalized=False) + dtw_distance(
                    yi, yj, normalized=False
                )
            matrix[i, j] = matrix[j, i] = score
    return matrix


def _partitions(grouping):
    return {frozenset(group) for group in grouping.groups}


class TestDissimilarityMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        order, dissimilarity = trajectory_dissimilarity_matrix(
            paper_example_dataset(), accounts=TABLE1_ACCOUNTS
        )
        return dict(order=list(order), matrix=dissimilarity)

    def _value(self, data, a, b):
        return data["matrix"][data["order"].index(a), data["order"].index(b)]

    def test_symmetric_zero_diagonal(self, matrix):
        m = matrix["matrix"]
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)

    def test_sybil_accounts_nearly_identical(self, matrix):
        assert self._value(matrix, "4'", "4''") < 0.01

    def test_fig4a_task_series_costs(self, matrix):
        # The task-series component dominates; the paper's Fig. 4(a)
        # values are 2 between accounts 1 and 2, and 1 between 1 and 4'.
        assert self._value(matrix, "1", "2") == pytest.approx(2.0, abs=0.1)
        assert self._value(matrix, "1", "4'") == pytest.approx(1.0, abs=0.1)

    def test_timestamp_scale_validation(self):
        with pytest.raises(ValueError, match="timestamp_scale"):
            trajectory_dissimilarity_matrix(
                paper_example_dataset(), timestamp_scale=0.0
            )

    def test_account_without_observations_gives_nan(self):
        # "ghost" never submitted anything, so there is no trajectory
        # evidence either way; the matrix marks the pair NaN (no edge).
        base = SensingDataset.from_matrix([[1.0]])
        _, matrix = trajectory_dissimilarity_matrix(
            base, accounts=["a0", "ghost"]
        )
        assert np.isnan(matrix[0, 1])

    def test_empty_trajectory_mid_order_stays_nan(self):
        dataset = SensingDataset.from_matrix(
            [[1.0, 2.0], [1.5, 2.5]], account_ids=["a", "b"]
        )
        order, matrix = trajectory_dissimilarity_matrix(
            dataset, accounts=["a", "empty", "b"]
        )
        k = order.index("empty")
        assert all(np.isnan(matrix[k, c]) for c in range(3) if c != k)
        assert not np.isnan(matrix[0, 2])

    def test_paper_scenario_matches_serial_dtw(self, paper_scenario):
        dataset = paper_scenario.dataset
        _, matrix = trajectory_dissimilarity_matrix(dataset)
        reference = _serial_dissimilarity_reference(dataset)
        assert np.array_equal(reference, matrix, equal_nan=True)


class TestPruning:
    def test_pruned_entries_below_threshold_are_exact(self, paper_scenario):
        dataset = paper_scenario.dataset
        _, exact = trajectory_dissimilarity_matrix(dataset)
        _, pruned = trajectory_dissimilarity_matrix(dataset, prune_threshold=1.0)
        below = exact < 1.0
        assert np.array_equal(pruned[below], exact[below])
        # Every other pair is still a non-edge of the strict < phi graph.
        assert (pruned[~below & ~np.isnan(exact)] >= 1.0).all()

    def test_pruning_counters_cover_all_pairs(self, paper_scenario):
        dataset = paper_scenario.dataset
        metrics = get_metrics()
        before = {
            name: metrics.counter(f"dtw.pairs_{name}").value
            for name in ("computed", "pruned", "shortcut")
        }
        _, matrix = trajectory_dissimilarity_matrix(dataset, prune_threshold=1.0)
        counts = {
            name: metrics.counter(f"dtw.pairs_{name}").value - value
            for name, value in before.items()
        }
        n = len(dataset.accounts)
        scored = int(np.count_nonzero(~np.isnan(matrix[np.triu_indices(n, 1)])))
        assert sum(counts.values()) == scored
        assert counts["pruned"] > 0

    def test_pruned_grouping_equals_unpruned(self, paper_scenario):
        dataset = paper_scenario.dataset
        order, exact = trajectory_dissimilarity_matrix(dataset)
        unpruned = groups_from_components(
            graph_from_dissimilarity(list(order), exact, 1.0)
        )
        pruned = TrajectoryGrouper(threshold=1.0).group(dataset)
        assert _partitions(unpruned) == _partitions(pruned)


class TestGrouping:
    def test_paper_example_grouping_matches_fig4(self, paper_dataset):
        grouping = TrajectoryGrouper(threshold=1.0).group(paper_dataset)
        groups = {frozenset(g) for g in grouping.groups}
        assert groups == {
            frozenset({"4'", "4''", "4'''"}),
            frozenset({"1"}),
            frozenset({"2"}),
            frozenset({"3"}),
        }

    def test_tiny_threshold_all_singletons(self, paper_dataset):
        grouping = TrajectoryGrouper(threshold=1e-6).group(paper_dataset)
        assert len(grouping) == len(paper_dataset.accounts)

    def test_huge_threshold_one_group(self, paper_dataset):
        grouping = TrajectoryGrouper(threshold=1e9).group(paper_dataset)
        assert len(grouping) == 1

    def test_fingerprints_ignored(self, paper_dataset):
        assert TrajectoryGrouper().group(
            paper_dataset, fingerprints=["bogus"]
        ) == TrajectoryGrouper().group(paper_dataset)

    def test_isolates_both_attackers_in_scenario(self, paper_scenario):
        grouping = TrajectoryGrouper().group(paper_scenario.dataset)
        for attacker_accounts in paper_scenario.user_partition.non_singleton_groups():
            sample = next(iter(attacker_accounts))
            group = grouping.group_of(sample)
            assert attacker_accounts <= group

    def test_legit_users_not_grouped_with_attackers(self, paper_scenario):
        grouping = TrajectoryGrouper().group(paper_scenario.dataset)
        sybil = paper_scenario.sybil_accounts
        for account in paper_scenario.dataset.accounts:
            if account in sybil:
                continue
            assert not (grouping.group_of(account) & sybil), account
