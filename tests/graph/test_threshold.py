"""Threshold-graph builder tests (the AG-TS / AG-TR shared back-end)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Grouping
from repro.graph.components import UndirectedGraph
from repro.graph.threshold import (
    graph_from_affinity,
    graph_from_dissimilarity,
    groups_from_components,
)


@pytest.fixture
def accounts():
    return ["a", "b", "c"]


def _matrix(ab, ac, bc):
    return np.array(
        [
            [0.0, ab, ac],
            [ab, 0.0, bc],
            [ac, bc, 0.0],
        ]
    )


class TestAffinityGraph:
    def test_strictly_greater_semantics(self, accounts):
        graph = graph_from_affinity(accounts, _matrix(2.0, 1.0, 0.5), threshold=1.0)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")  # exactly at threshold
        assert not graph.has_edge("b", "c")

    def test_nan_scores_no_edge(self, accounts):
        graph = graph_from_affinity(
            accounts, _matrix(np.nan, 5.0, np.nan), threshold=1.0
        )
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("a", "c")

    def test_all_nodes_present_even_without_edges(self, accounts):
        graph = graph_from_affinity(accounts, _matrix(0, 0, 0), threshold=1.0)
        assert graph.nodes == ("a", "b", "c")

    def test_shape_validation(self, accounts):
        with pytest.raises(ValueError, match="3x3"):
            graph_from_affinity(accounts, np.zeros((2, 2)), threshold=0.0)

    def test_symmetry_validation(self, accounts):
        matrix = _matrix(1.0, 2.0, 3.0)
        matrix[0, 1] = 99.0
        with pytest.raises(ValueError, match="symmetric"):
            graph_from_affinity(accounts, matrix, threshold=0.0)

    def test_edge_weight_stores_score(self, accounts):
        graph = graph_from_affinity(accounts, _matrix(4.0, 0, 0), threshold=1.0)
        assert graph.edge_weight("a", "b") == 4.0


class TestDissimilarityGraph:
    def test_strictly_less_semantics(self, accounts):
        graph = graph_from_dissimilarity(
            accounts, _matrix(0.5, 1.0, 2.0), threshold=1.0
        )
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")  # exactly at threshold
        assert not graph.has_edge("b", "c")

    def test_nan_scores_no_edge(self, accounts):
        graph = graph_from_dissimilarity(
            accounts, _matrix(np.nan, 0.1, np.nan), threshold=1.0
        )
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("a", "c")


class TestGroupsFromComponents:
    def test_components_become_groups(self, accounts):
        graph = graph_from_affinity(accounts, _matrix(5.0, 0, 0), threshold=1.0)
        grouping = groups_from_components(graph)
        assert grouping == Grouping.from_groups([["a", "b"], ["c"]])

    def test_no_edges_all_singletons(self, accounts):
        graph = graph_from_affinity(accounts, _matrix(0, 0, 0), threshold=1.0)
        grouping = groups_from_components(graph)
        assert len(grouping) == 3


def _per_pair_graph(accounts, scores, keep):
    """The threshold graph built one pair at a time (the original loop)."""
    graph = UndirectedGraph(accounts)
    for i in range(len(accounts)):
        for j in range(i + 1, len(accounts)):
            score = scores[i, j]
            if not np.isnan(score) and keep(score):
                graph.add_edge(accounts[i], accounts[j], weight=float(score))
    return graph


def _layout(graph):
    """Adjacency with every dict's insertion order made visible."""
    return [(node, list(nbrs.items())) for node, nbrs in graph._adjacency.items()]


scores = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0])


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(scores, min_size=n * n, max_size=n * n).map(
        lambda flat: np.array(flat, dtype=float).reshape(n, n)
    )
))
@settings(max_examples=100, deadline=None)
def test_threshold_graphs_equal_the_per_pair_loop(raw):
    matrix = np.triu(raw, 1) + np.triu(raw, 1).T
    np.fill_diagonal(matrix, 0.0)
    # Accounts listed out of sorted order, so insertion order is visible.
    accounts = [f"u{k}" for k in range(len(matrix))][::-1]
    for build, keep in (
        (graph_from_affinity, lambda s: s > 1.0),
        (graph_from_dissimilarity, lambda s: s < 1.0),
    ):
        graph = build(accounts, matrix, 1.0)
        assert _layout(graph) == _layout(_per_pair_graph(accounts, matrix, keep))
