"""Whole-array AG-TR scoring against the scalar oracle (tests/timeseries/dtw_oracle.py).

The batched DTW kernel, the vectorized bounds and the array pair scoring
must give the same bits, dispositions and DTW telemetry as the one-cell,
one-pair algorithm they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import SensingDataset
from repro.core.grouping.trajectory import (
    TrajectoryGrouper,
    pairwise_trajectory_dissimilarity,
    trajectory_dissimilarity_matrix,
)
from repro.core.types import Observation, Task
from repro.graph.threshold import graph_from_dissimilarity, groups_from_components
from repro.obs import MetricsRegistry, set_metrics
from repro.obs.metrics import Histogram
from repro.timeseries.bounds import lb_kim, lb_kim_pairs
from repro.timeseries.dtw import dtw_cost, dtw_costs, warping_path

from tests.timeseries.dtw_oracle import (
    OracleScores,
    oracle_cost,
    oracle_cost_table,
    oracle_lb_kim,
)

# Small values on a coarse grid tie often, which exercises the min of
# equal neighbours; the odd fraction keeps the sums inexact.
values = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.3, 3.0])
short_series = st.lists(values, min_size=1, max_size=7)
budgets = st.one_of(
    st.floats(min_value=0.0, max_value=30.0), st.just(float("inf"))
)


def _recorded(fn):
    """Run ``fn`` against a fresh metrics registry; return (result, registry)."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        return fn(), registry
    finally:
        set_metrics(previous)


def _histogram(cells):
    histogram = Histogram("dtw.cells")
    for observed in cells:
        histogram.observe(observed)
    return histogram.summary()


@given(
    st.lists(st.tuples(short_series, short_series, budgets), min_size=1, max_size=12),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_batched_costs_equal_the_scalar_recurrence(pairs, budgeted):
    a = [np.array(p[0]) for p in pairs]
    b = [np.array(p[1]) for p in pairs]
    abandon = [p[2] for p in pairs] if budgeted else None
    got, registry = _recorded(lambda: dtw_costs(a, b, abandon=abandon))
    expected = [
        oracle_cost(x, y, None, None if abandon is None else abandon[k])
        for k, (x, y) in enumerate(zip(a, b))
    ]
    assert got.tobytes() == np.array([cost for cost, _ in expected]).tobytes()
    assert registry.counter("dtw.calls").value == len(pairs)
    assert registry.counter("dtw.abandoned").value == sum(gone for _, gone in expected)
    assert registry.histogram("dtw.cells").summary() == _histogram(
        len(x) * len(y) for x, y in zip(a, b)
    )
    for k, (x, y) in enumerate(zip(a, b)):
        budget = None if abandon is None else abandon[k]
        assert dtw_cost(x, y, abandon=budget) == got[k]


@given(short_series, short_series)
@settings(max_examples=60, deadline=None)
def test_warping_path_cost_is_the_scalar_table_entry(a, b):
    _, total = warping_path(a, b)
    table = oracle_cost_table(np.array(a), np.array(b), None)
    assert total == table[len(a), len(b)]


def test_blocks_split_many_pairs_without_changing_costs():
    rng = np.random.default_rng(3)
    a = [rng.normal(size=rng.integers(1, 90)) for _ in range(150)]
    b = [rng.normal(size=rng.integers(1, 90)) for _ in range(150)]
    got = dtw_costs(a, b, abandon=np.full(150, 40.0))
    expected = [oracle_cost(x, y, None, 40.0)[0] for x, y in zip(a, b)]
    assert got.tobytes() == np.array(expected).tobytes()


@given(st.lists(st.lists(values, max_size=4), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_lb_kim_pairs_equals_the_scalar_bound(raw):
    series = [np.array(s) for s in raw]
    i, j = np.triu_indices(len(series), 1)
    got = lb_kim_pairs(series, i, j)
    for k, (a, b) in enumerate(zip(i, j)):
        if len(series[a]) and len(series[b]):
            expected = oracle_lb_kim(series[a], series[b])
            assert got[k] == expected == lb_kim(series[a], series[b])
        else:
            assert np.isnan(got[k])


# ----------------------------------------------------------------------
# Eq. 8 over all pairs
# ----------------------------------------------------------------------

trajectories = st.lists(
    st.lists(st.tuples(values, values), max_size=6).map(
        lambda points: (
            np.array([x for x, _ in points]),
            np.array([y / 4 for _, y in points]),
        )
    ),
    min_size=1,
    max_size=7,
)
thresholds = st.sampled_from([None, 0.5, 1.0, 4.0, 12.0])


@given(trajectories, thresholds)
@settings(max_examples=120, deadline=None)
def test_scores_equal_the_pair_loop(trajs, threshold):
    matrix, registry = _recorded(
        lambda: pairwise_trajectory_dissimilarity(trajs, prune_threshold=threshold)
    )
    oracle = OracleScores()
    expected = oracle.matrix(trajs, window=None, threshold=threshold)
    assert matrix.tobytes() == expected.tobytes()
    counters = registry.snapshot()["counters"]
    assert counters.get("dtw.calls", 0) == oracle.calls
    assert counters.get("dtw.abandoned", 0) == oracle.abandoned
    assert counters["dtw.pairs_computed"] == oracle.computed
    assert counters["dtw.pairs_pruned"] == oracle.pruned
    assert counters["dtw.pairs_shortcut"] == oracle.shortcut
    assert registry.histogram("dtw.cells").summary() == _histogram(oracle.cells)


def test_half_empty_trajectory_rejected():
    trajectories = [
        (np.array([1.0, 2.0]), np.array([0.0, 1.0])),
        (np.array([3.0]), np.array([])),
    ]
    with pytest.raises(ValueError, match="not both"):
        pairwise_trajectory_dissimilarity(trajectories, prune_threshold=1.0)


campaigns = st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 40)), max_size=6),
    min_size=2,
    max_size=7,
)


def _dataset(raw):
    """Accounts ``a0..`` submitting to tasks ``T0..T5`` at 5-minute ticks."""
    tasks = [Task(f"T{k}") for k in range(6)]
    observations = []
    for account, submissions in enumerate(raw):
        seen = set()
        for task, tick in submissions:
            if task not in seen:
                seen.add(task)
                observations.append(
                    Observation(f"a{account}", f"T{task}", 0.0, 300.0 * tick)
                )
    return SensingDataset(tasks, observations)


@given(campaigns, st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_dissimilarity_matrix_equals_the_pair_loop(raw, phi):
    dataset = _dataset(raw)
    order = list(dataset.accounts) + ["empty"]
    series = []
    for account in order:
        xs, ys = dataset.trajectory(account)
        series.append((xs, ys / 3600.0))
    for prune in (None, phi):
        _, matrix = trajectory_dissimilarity_matrix(
            dataset, accounts=order, prune_threshold=prune
        )
        expected = OracleScores().matrix(series, window=None, threshold=prune)
        assert matrix.tobytes() == expected.tobytes()


@given(campaigns, st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_pruned_grouping_equals_unpruned(raw, phi):
    dataset = _dataset(raw)
    order, exact = trajectory_dissimilarity_matrix(dataset)
    full = groups_from_components(graph_from_dissimilarity(list(order), exact, phi))
    assert TrajectoryGrouper(threshold=phi).group(dataset) == full
