"""The runtime determinism contract: workers=1 ≡ workers=K ≡ serial.

AG-TR is the one sharded surface; its dissimilarities, groupings and
DTW telemetry must be **byte-identical** (``np.array_equal``, not
``allclose``) for any worker count, equal to the plain serial
implementation.  AG-TS, the framework and combined grouping run inline
and must not change under a parallel session either.  These tests pin
that contract on a realized simulation campaign.
"""

import numpy as np
import pytest

from repro.core.dataset import SensingDataset
from repro.core.framework import SybilResistantTruthDiscovery
from repro.core.grouping.combined import CombinedGrouper
from repro.core.grouping.taskset import TaskSetGrouper, taskset_affinity_matrix
from repro.core.grouping.trajectory import (
    TrajectoryGrouper,
    trajectory_dissimilarity_matrix,
)
from repro.obs import MetricsRegistry, set_metrics
from repro.runtime import ShardExecutor, runtime_session
from repro.timeseries.dtw import dtw_distance


def _serial_affinity_reference(dataset):
    """Eq. 6 with per-pair Python set arithmetic (the original loop)."""
    order = dataset.accounts
    m = len(dataset.tasks)
    task_sets = [dataset.task_set(a) for a in order]
    n = len(order)
    affinity = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            together = len(task_sets[i] & task_sets[j])
            alone = len(task_sets[i] ^ task_sets[j])
            score = (together - 2 * alone) * (together + alone) / m
            affinity[i, j] = affinity[j, i] = score
    return affinity


def _serial_dissimilarity_reference(dataset, timestamp_scale=3600.0):
    """Eq. 8 with a per-pair dtw_distance loop (the original loop)."""
    order = dataset.accounts
    trajectories = [
        (xs, ys / timestamp_scale)
        for xs, ys in (dataset.trajectory(a) for a in order)
    ]
    n = len(order)
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


class TestTaskSetDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_affinity_matrix_byte_identical(self, paper_scenario, workers):
        dataset = paper_scenario.dataset
        reference = _serial_affinity_reference(dataset)
        with runtime_session(workers=workers):
            _, sharded = taskset_affinity_matrix(dataset)
        assert np.array_equal(reference, sharded)

    def test_grouping_partition_equal_across_workers(self, paper_scenario):
        dataset = paper_scenario.dataset
        with runtime_session(workers=1):
            serial = TaskSetGrouper().group(dataset)
        with runtime_session(workers=4):
            parallel = TaskSetGrouper().group(dataset)
        assert _partitions(serial) == _partitions(parallel)


class TestTrajectoryDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_dissimilarity_matrix_byte_identical(self, paper_scenario, workers):
        dataset = paper_scenario.dataset
        reference = _serial_dissimilarity_reference(dataset)
        with runtime_session(workers=workers):
            _, sharded = trajectory_dissimilarity_matrix(dataset)
        assert np.array_equal(reference, sharded, equal_nan=True)

    def test_pruned_grouping_equals_unpruned(self, paper_scenario):
        dataset = paper_scenario.dataset
        unpruned = TrajectoryGrouper(threshold=1.0, prune=False).group(dataset)
        with runtime_session(workers=4):
            pruned = TrajectoryGrouper(threshold=1.0, prune=True).group(dataset)
        assert _partitions(unpruned) == _partitions(pruned)

    def test_empty_trajectories_stay_nan(self):
        dataset = SensingDataset.from_matrix(
            [[1.0, 2.0], [1.5, 2.5]],
            account_ids=["a", "b"],
        )
        with runtime_session(workers=4):
            # "empty" never submitted anything: its trajectory is empty.
            order, matrix = trajectory_dissimilarity_matrix(
                dataset, accounts=["a", "empty", "b"]
            )
        k = order.index("empty")
        off_diag = [matrix[k, c] for c in range(3) if c != k]
        assert all(np.isnan(v) for v in off_diag)

    def test_dtw_telemetry_equal_across_workers(self, paper_scenario):
        dataset = paper_scenario.dataset

        def dtw_telemetry(workers):
            metrics = MetricsRegistry()
            previous = set_metrics(metrics)
            try:
                with runtime_session(workers=workers):
                    TrajectoryGrouper().group(dataset)
            finally:
                set_metrics(previous)
            counters = {
                name: value
                for name, value in metrics.snapshot()["counters"].items()
                if name.startswith("dtw.")
            }
            return counters, metrics.histogram("dtw.cells").count

        serial = dtw_telemetry(1)
        assert serial[0]["dtw.calls"] > 0
        assert serial[1] == serial[0]["dtw.calls"]
        assert dtw_telemetry(2) == serial


class TestFrameworkDeterminism:
    def test_truths_and_weights_byte_identical(self, paper_scenario):
        dataset = paper_scenario.dataset
        grouping = TaskSetGrouper().group(dataset)

        def run(workers):
            with runtime_session(workers=workers):
                return SybilResistantTruthDiscovery().discover(
                    dataset, grouping=grouping
                )

        serial = SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)
        for workers in (1, 4):
            result = run(workers)
            assert result.truths == serial.truths
            assert result.group_weights == serial.group_weights
            assert result.iterations == serial.iterations


class TestCombinedDeterminism:
    def test_constituents_parallel_equal_serial(self, paper_scenario):
        # The constituents run in turn; under workers=2 AG-TR shards its
        # pair space on the pool.
        dataset = paper_scenario.dataset
        groupers = [TaskSetGrouper(), TrajectoryGrouper()]
        serial = CombinedGrouper(groupers, mode="union").group(dataset)
        with runtime_session(workers=2):
            parallel = CombinedGrouper(groupers, mode="union").group(dataset)
        assert _partitions(serial) == _partitions(parallel)


class TestExecutorFallback:
    def test_unpicklable_payload_falls_back_inline(self):
        executor = ShardExecutor(workers=2)
        try:
            payloads = [(lambda: 1,), (lambda: 2,)]  # lambdas don't pickle
            results = executor.map(_call_first, payloads)
            assert results == [1, 2]
            assert executor._pool_broken
            # Subsequent maps keep working (inline).
            assert executor.map(_identity, [(3,), (4,)]) == [(3,), (4,)]
        finally:
            executor.close()


def _call_first(payload):
    return payload[0]()


def _identity(payload):
    return payload
