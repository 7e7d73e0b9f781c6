"""Unit tests for the core value types (Task, Observation, Grouping)."""

import pytest

from repro.core.types import Grouping, Observation, Task
from repro.errors import PartitionError


class TestTask:
    def test_distance_between_located_tasks(self):
        a = Task("T1", location=(0.0, 0.0))
        b = Task("T2", location=(3.0, 4.0))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = Task("T1", location=(1.0, 2.0))
        b = Task("T2", location=(-4.0, 7.5))
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        a = Task("T1", location=(1.0, 2.0))
        assert a.distance_to(a) == 0.0

    def test_distance_requires_locations(self):
        a = Task("T1", location=(0.0, 0.0))
        b = Task("T2")
        with pytest.raises(ValueError, match="location"):
            a.distance_to(b)

    def test_tasks_are_hashable_and_frozen(self):
        a = Task("T1")
        assert {a: 1}[Task("T1")] == 1
        with pytest.raises(AttributeError):
            a.task_id = "T2"  # type: ignore[misc]


class TestObservation:
    def test_valid_observation(self):
        obs = Observation("a", "T1", -70.5, 12.0)
        assert obs.value == -70.5
        assert obs.timestamp == 12.0

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError, match="timestamp"):
            Observation("a", "T1", 1.0, -0.1)

    def test_rejects_non_numeric_value(self):
        with pytest.raises(TypeError, match="numeric"):
            Observation("a", "T1", "strong", 0.0)  # type: ignore[arg-type]

    def test_integer_values_accepted(self):
        assert Observation("a", "T1", -70, 0.0).value == -70


class TestGroupingConstruction:
    def test_from_groups_builds_partition(self):
        g = Grouping.from_groups([["a", "b"], ["c"]])
        assert len(g) == 2
        assert g.accounts == {"a", "b", "c"}

    def test_duplicate_account_rejected(self):
        with pytest.raises(PartitionError, match="more than one group"):
            Grouping.from_groups([["a", "b"], ["b", "c"]])

    def test_empty_groups_dropped(self):
        g = Grouping.from_groups([["a"], [], ["b"]])
        assert len(g) == 2

    def test_groups_ordered_by_smallest_member(self):
        g = Grouping.from_groups([["z"], ["a", "y"], ["m"]])
        assert [min(members) for members in g.groups] == ["a", "m", "z"]

    def test_equal_partitions_compare_equal_regardless_of_order(self):
        g1 = Grouping.from_groups([["a", "b"], ["c"]])
        g2 = Grouping.from_groups([["c"], ["b", "a"]])
        assert g1 == g2

    def test_singletons(self):
        g = Grouping.singletons(["x", "y", "z"])
        assert len(g) == 3
        assert all(len(members) == 1 for members in g.groups)

    def test_singletons_deduplicates(self):
        g = Grouping.singletons(["x", "x", "y"])
        assert len(g) == 2


class TestGroupingQueries:
    @pytest.fixture
    def grouping(self) -> Grouping:
        return Grouping.from_groups([["a", "b", "c"], ["d"], ["e", "f"]])

    def test_group_of(self, grouping):
        assert grouping.group_of("b") == {"a", "b", "c"}
        assert grouping.group_of("d") == {"d"}

    def test_group_of_unknown_raises(self, grouping):
        with pytest.raises(KeyError):
            grouping.group_of("zzz")

    def test_membership(self, grouping):
        assert all(account in grouping for account in "abcdef")
        assert "zzz" not in grouping
        assert None not in grouping

    def test_group_index_consistent_with_group_of(self, grouping):
        for account in grouping.accounts:
            index = grouping.group_index_of(account)
            assert account in grouping.groups[index]

    def test_as_labels_same_group_same_label(self, grouping):
        labels = grouping.as_labels(["a", "b", "c", "d", "e", "f"])
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] not in (labels[0], labels[4])

    def test_iteration_yields_all_groups(self, grouping):
        assert sorted(len(g) for g in grouping) == [1, 2, 3]

    def test_non_singleton_groups(self, grouping):
        suspicious = grouping.non_singleton_groups()
        assert {frozenset(g) for g in suspicious} == {
            frozenset({"a", "b", "c"}),
            frozenset({"e", "f"}),
        }

    def test_restricted_to_projects_partition(self, grouping):
        restricted = grouping.restricted_to(["a", "b", "e"])
        assert restricted.accounts == {"a", "b", "e"}
        assert restricted.group_of("a") == {"a", "b"}
        assert restricted.group_of("e") == {"e"}

    def test_restricted_to_empty_selection(self, grouping):
        assert len(grouping.restricted_to([])) == 0
