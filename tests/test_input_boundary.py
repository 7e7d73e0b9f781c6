"""Every public discover/group entry point on degenerate input.

Huge values, a single account, a single claim and constant columns must
either raise a :mod:`repro.errors` type or give finite results, and must
never emit a ``RuntimeWarning`` (an overflow there used to turn into
meaningless finite truths).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CATD,
    CRH,
    GTM,
    CategoricalClaims,
    CategoricalTruthDiscovery,
    CombinedGrouper,
    FingerprintGrouper,
    Grouping,
    IterativeTruthDiscovery,
    MeanAggregator,
    MedianAggregator,
    Observation,
    SensingDataset,
    StreamingTruthDiscovery,
    SybilResistantTruthDiscovery,
    Task,
    TaskSetGrouper,
    TrajectoryGrouper,
    exponential_weights,
    reciprocal_weights,
)
from repro.core.types import MAX_ABS_VALUE
from repro.errors import DataValidationError, ReproError

#: Values at and beyond the ingest bound, tiny and ordinary ones.
values = st.sampled_from(
    [0.0, 1.0, -3.5, 5e-324, 1e99, -1e99, MAX_ABS_VALUE, -MAX_ABS_VALUE, 1e101, 1e300, -1e300]
)
timestamps = st.sampled_from([0.0, 1.0, 3600.0, 1e99, MAX_ABS_VALUE, 1e300])


@st.composite
def campaigns(draw):
    """Claims ``(account, task, value, timestamp)``; columns may be constant."""
    n_accounts = draw(st.integers(1, 4))
    n_tasks = draw(st.integers(1, 3))
    constant = draw(st.one_of(st.none(), values))
    claims = []
    for i in range(n_accounts):
        for j in range(n_tasks):
            if i and not draw(st.booleans()):
                continue
            value = constant if constant is not None else draw(values)
            claims.append((f"a{i}", f"T{j}", value, draw(timestamps)))
    return claims


def _in_bounds(claims):
    return all(abs(v) <= MAX_ABS_VALUE and t <= MAX_ABS_VALUE for _, _, v, t in claims)


def _finite(numbers):
    return all(math.isfinite(x) for x in numbers)


def _discoverers(dataset):
    accounts = dataset.accounts
    yield lambda: CRH().discover(dataset)
    yield lambda: IterativeTruthDiscovery(weight_function=reciprocal_weights).discover(dataset)
    yield lambda: IterativeTruthDiscovery(weight_function=exponential_weights).discover(dataset)
    yield lambda: MeanAggregator().discover(dataset)
    yield lambda: MedianAggregator().discover(dataset)
    yield lambda: GTM().discover(dataset)
    yield lambda: CATD().discover(dataset)
    for aggregation in ("mean", "median", "inverse_deviation"):
        framework = SybilResistantTruthDiscovery(aggregation=aggregation)
        yield lambda f=framework: f.discover(dataset, grouping=Grouping.singletons(accounts))
        yield lambda f=framework: f.discover(dataset, grouping=Grouping.from_groups([accounts]))
    yield lambda: SybilResistantTruthDiscovery(grouper=TaskSetGrouper()).discover(dataset)
    yield lambda: SybilResistantTruthDiscovery(grouper=TrajectoryGrouper()).discover(dataset)


def _groupers():
    yield TaskSetGrouper()
    yield TrajectoryGrouper()
    yield TrajectoryGrouper(prune=False, window=1)
    yield TrajectoryGrouper(normalized=True)
    yield CombinedGrouper([TaskSetGrouper(), TrajectoryGrouper()], mode="intersection")
    yield FingerprintGrouper()  # no captures: a FingerprintError


def _check_result(result):
    if hasattr(result, "as_truth_discovery_result"):
        result = result.as_truth_discovery_result()
    assert _finite(result.truths.values())
    assert _finite(result.weights.values())


def _run_all(claims):
    tasks = sorted({task for _, task, _, _ in claims})
    observations = [Observation(a, t, v, ts) for a, t, v, ts in claims]
    try:
        dataset = SensingDataset([Task(t) for t in tasks], observations)
    except DataValidationError:
        assert not _in_bounds(claims)
    else:
        assert _in_bounds(claims)
        for run in _discoverers(dataset):
            _check_result(run())
        for grouper in _groupers():
            try:
                grouping = grouper.group(dataset)
            except ReproError:
                continue
            assert grouping.accounts == set(dataset.accounts)

    engine = StreamingTruthDiscovery()
    try:
        truths = engine.observe(observations)
    except DataValidationError:
        assert not all(abs(v) <= MAX_ABS_VALUE for _, _, v, _ in claims)
        assert engine.truths == {}
    else:
        assert _finite(truths.values())
        assert _finite(engine.weights.values())

    labels = CategoricalClaims([(a, t, v) for a, t, v, _ in claims])
    result = CategoricalTruthDiscovery().discover(labels)
    assert set(result.truths.values()) <= {v for _, _, v, _ in claims}


@given(campaigns())
@settings(max_examples=150, deadline=None)
@example([("a", "t0", 1e300, 0.0), ("b", "t0", -1e300, 1.0), ("c", "t0", 5.0, 2.0)])
@example([("a", "t0", MAX_ABS_VALUE, 0.0), ("b", "t0", -MAX_ABS_VALUE, 1.0), ("c", "t0", 5.0, 2.0)])
@example([("a", "t0", 7.0, 0.0)])
@example([("a", "t0", 2.0, 0.0), ("b", "t0", 2.0, 0.0), ("b", "t1", 2.0, MAX_ABS_VALUE)])
def test_entry_points_raise_or_stay_finite(claims):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _run_all(claims)


@pytest.mark.parametrize("bad", [1e300, -1e101, float("inf"), float("nan")])
def test_out_of_bound_values_rejected_at_ingest(bad):
    with pytest.raises(DataValidationError, match="value"):
        SensingDataset([Task("T1")], [Observation("a", "T1", bad, 0.0)])
    engine = StreamingTruthDiscovery()
    engine.observe([Observation("a", "T1", 1.0, 0.0)])
    with pytest.raises(DataValidationError, match="value"):
        engine.observe([Observation("b", "T1", 2.0, 0.0), Observation("c", "T1", bad, 0.0)])
    # The rejected batch left no trace.
    assert engine.truths == {"T1": 1.0}


@pytest.mark.parametrize("bad", [1e101, float("inf"), float("nan")])
def test_out_of_bound_timestamps_rejected_at_ingest(bad):
    with pytest.raises(DataValidationError, match="timestamp"):
        SensingDataset.from_matrix([[1.0]], timestamps=[[bad]])


def test_bound_is_inclusive():
    dataset = SensingDataset.from_matrix(
        [[MAX_ABS_VALUE], [-MAX_ABS_VALUE]], timestamps=[[MAX_ABS_VALUE], [0.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(CRH().discover(dataset).truths["T1"])
