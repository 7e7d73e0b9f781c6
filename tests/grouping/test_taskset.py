"""AG-TS tests: Eq. 6 affinities and threshold-graph grouping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import SensingDataset
from repro.core.grouping.taskset import TaskSetGrouper, taskset_affinity_matrix
from repro.experiments.paperdata import TABLE1_ACCOUNTS, paper_example_dataset


class TestAffinityMatrix:
    @pytest.fixture(scope="class")
    def affinity(self):
        order, matrix = taskset_affinity_matrix(
            paper_example_dataset(), accounts=TABLE1_ACCOUNTS
        )
        return dict(order=order, matrix=matrix)

    def _value(self, affinity, a, b):
        order = list(affinity["order"])
        return affinity["matrix"][order.index(a), order.index(b)]

    def test_symmetric(self, affinity):
        matrix = affinity["matrix"]
        assert np.allclose(matrix, matrix.T)

    def test_identical_task_sets_maximal(self, affinity):
        # The attacker accounts share {T1, T3, T4}: T=3, L=0, A=9/4.
        assert self._value(affinity, "4'", "4''") == pytest.approx(2.25)

    def test_subset_task_sets(self, affinity):
        # Accounts 1 (all four) and 4' ({T1,T3,T4}): T=3, L=1, A=(3-2)*4/4.
        assert self._value(affinity, "1", "4'") == pytest.approx(1.0)

    def test_mostly_disjoint_negative(self, affinity):
        # Accounts 2 ({T2,T3}) and 3 ({T1,T2,T4}): T=1, L=3, A=(1-6)*4/4.
        assert self._value(affinity, "2", "3") == pytest.approx(-5.0)

    def test_eq6_formula_directly(self):
        # Hand-built: i does {A,B}, j does {B,C}; m=3.
        # T=1, L=2 -> A = (1-4)*(3)/3 = -3.
        ds = SensingDataset.from_matrix(
            [[1.0, 1.0, np.nan], [np.nan, 1.0, 1.0]],
            task_ids=["A", "B", "C"],
        )
        _, matrix = taskset_affinity_matrix(ds)
        assert matrix[0, 1] == pytest.approx(-3.0)

    def test_requires_tasks(self):
        with pytest.raises(ValueError, match="no tasks"):
            taskset_affinity_matrix(SensingDataset([], []))


class TestGrouping:
    def test_paper_example_grouping(self, paper_dataset):
        grouping = TaskSetGrouper(threshold=1.0).group(paper_dataset)
        groups = {frozenset(g) for g in grouping.groups}
        # Eq. 6 implemented literally: the attacker trio is isolated and
        # every legitimate account is a singleton (see the Fig. 3 note).
        assert frozenset({"4'", "4''", "4'''"}) in groups
        assert frozenset({"1"}) in groups
        assert frozenset({"2"}) in groups
        assert frozenset({"3"}) in groups

    def test_threshold_is_strict(self, paper_dataset):
        # A(1, 4') is exactly 1.0; with rho slightly below, account 1
        # joins the attacker component.
        grouping = TaskSetGrouper(threshold=0.99).group(paper_dataset)
        assert grouping.group_of("1") >= {"1", "4'", "4''", "4'''"}

    def test_high_threshold_all_singletons(self, paper_dataset):
        grouping = TaskSetGrouper(threshold=100.0).group(paper_dataset)
        assert len(grouping) == len(paper_dataset.accounts)

    def test_fingerprints_ignored(self, paper_dataset):
        with_fp = TaskSetGrouper().group(paper_dataset, fingerprints=["bogus"])
        without_fp = TaskSetGrouper().group(paper_dataset)
        assert with_fp == without_fp

    def test_covers_all_accounts(self, paper_dataset):
        grouping = TaskSetGrouper().group(paper_dataset)
        assert grouping.accounts == set(paper_dataset.accounts)

    def test_groups_sybil_accounts_in_scenario(self, high_activity_scenario):
        scenario = high_activity_scenario
        grouping = TaskSetGrouper().group(scenario.dataset)
        # Both very active attackers have identical per-attacker task
        # sets, so each attacker's accounts share a group.
        for attacker_accounts in scenario.user_partition.non_singleton_groups():
            sample = next(iter(attacker_accounts))
            assert attacker_accounts <= grouping.group_of(sample)


@st.composite
def _memberships(draw):
    """A random 0/1 accounts x tasks membership with at least one task."""
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.integers(min_value=1, max_value=9))
    flat = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    return np.array(flat, dtype=bool).reshape(n, m)


@settings(max_examples=60, deadline=None)
@given(_memberships())
def test_gram_affinity_equals_per_pair_set_arithmetic(membership):
    # Eq. 6 from the Gram matrix must equal the per-pair set arithmetic
    # bit for bit, including accounts with empty task sets.
    n, m = membership.shape
    tasks = [f"T{j}" for j in range(m)]
    task_sets = [
        {tasks[j] for j in np.flatnonzero(row)} for row in membership
    ]
    # One filler account answers every task so each task exists.
    values = np.where(membership, 1.0, np.nan)
    dataset = SensingDataset.from_matrix(
        np.vstack([values, np.ones((1, m))]),
        account_ids=[f"a{i}" for i in range(n)] + ["filler"],
        task_ids=tasks,
    )
    order = [f"a{i}" for i in range(n)]
    _, affinity = taskset_affinity_matrix(dataset, accounts=order)
    reference = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            together = len(task_sets[i] & task_sets[j])
            alone = len(task_sets[i] ^ task_sets[j])
            score = (together - 2 * alone) * (together + alone) / m
            reference[i, j] = reference[j, i] = score
    assert np.array_equal(affinity, reference)
