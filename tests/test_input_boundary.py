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


@st.composite
def campaigns_with_edge_groupings(draw):
    """A campaign and a grouping that names unknown accounts, omits some
    claiming accounts, or holds only unknown accounts."""
    claims = draw(campaigns())
    accounts = sorted({account for account, _, _, _ in claims})
    unknown = ["x0", "x1", "x2"]
    kind = draw(
        st.sampled_from(["names unknown accounts", "omits accounts", "only unknown accounts"])
    )
    if kind == "names unknown accounts":
        members = accounts + unknown[: draw(st.integers(1, 3))]
    elif kind == "omits accounts":
        members = draw(st.lists(st.sampled_from(accounts), max_size=len(accounts) - 1, unique=True))
    else:
        members = unknown[: draw(st.integers(1, 3))]
    groups = {}
    for account in members:
        groups.setdefault(draw(st.integers(0, 2)), []).append(account)
    return claims, Grouping.from_groups(groups.values())


def _raises_typed_or_finite(run):
    try:
        result = run()
    except ReproError:
        return None
    _check_result(result)
    return result


@given(campaigns_with_edge_groupings())
@settings(max_examples=100, deadline=None)
@example(([("a0", "T0", 1.0, 0.0), ("a1", "T0", 3.0, 1.0)], Grouping.from_groups([["a0", "zz"]])))
@example(([("a0", "T0", 1.0, 0.0), ("a1", "T0", 3.0, 1.0)], Grouping.from_groups([["a1"]])))
@example(([("a0", "T0", 1.0, 0.0), ("a1", "T0", 3.0, 1.0)], Grouping.from_groups([["y", "z"]])))
def test_edge_groupings_raise_or_stay_finite(case):
    claims, grouping = case
    observations = [Observation(a, t, v, ts) for a, t, v, ts in claims]
    tasks = [Task(t) for t in sorted({task for _, task, _, _ in claims})]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            dataset = SensingDataset(tasks, observations)
        except DataValidationError:
            assert not _in_bounds(claims)
        else:
            for aggregation in ("mean", "median", "inverse_deviation"):
                framework = SybilResistantTruthDiscovery(aggregation=aggregation)
                _raises_typed_or_finite(lambda: framework.discover(dataset, grouping=grouping))
        engine = StreamingTruthDiscovery(grouping=grouping)
        try:
            engine.observe(observations)
        except DataValidationError:
            assert not all(abs(v) <= MAX_ABS_VALUE for _, _, v, _ in claims)
        else:
            assert _finite(engine.truths.values()) and _finite(engine.weights.values())
        labels = CategoricalClaims([(a, t, v) for a, t, v, _ in claims])
        result = _raises_typed_or_finite(
            lambda: CategoricalTruthDiscovery(grouping=grouping).discover(labels)
        )
        assert result is None or set(result.truths.values()) <= {v for _, _, v, _ in claims}


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


# ----------------------------------------------------------------------
# Typed errors at every ingest entry point, naming the entry
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"values": [[1.0, 2.0]], "timestamps": [[0.0, -5.0]]},
         "observation timestamp for ('a0', 'T2') must be non-negative, got -5.0"),
        ({"values": [[1.0, "abc"]]},
         "observation value for ('a0', 'T2') must be numeric, got <class 'str'>"),
        ({"values": [[1.0, 2.0]], "timestamps": [[0.0, "noon"]]},
         "observation timestamp for ('a0', 'T2') must be numeric, got <class 'str'>"),
    ],
)
def test_from_matrix_names_the_bad_entry(kwargs, message):
    with pytest.raises(DataValidationError) as info:
        SensingDataset.from_matrix(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "column, bad, message",
    [
        (2, "1.0", "observation value for ('b', 'T1') must be numeric, got <class 'str'>"),
        (3, None, "observation timestamp for ('b', 'T1') must be numeric, got <class 'NoneType'>"),
        (3, -5.0, "observation timestamp for ('b', 'T1') must be non-negative, got -5.0"),
        (3, math.nan, "observation timestamp for ('b', 'T1') is not finite: nan"),
        (2, 1e101, "observation value for ('b', 'T1') exceeds the 1e+100 magnitude bound: 1e+101"),
        (1, "T9", "observation references unknown task 'T9'"),
        (0, "a", "duplicate observation for account 'a' and task 'T1'"),
    ],
)
def test_from_arrays_reports_the_first_bad_claim(column, bad, message):
    columns = [["a", "b", "c"], ["T1", "T1", "T1"], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0]]
    columns[column][1] = bad
    # A later claim is bad too: the first in input order is reported.
    columns[2][2] = math.inf
    with pytest.raises(DataValidationError) as info:
        SensingDataset.from_arrays([Task("T1")], *columns)
    assert str(info.value) == message


def test_from_arrays_rejects_ragged_columns():
    with pytest.raises(DataValidationError, match="equal lengths"):
        SensingDataset.from_arrays([Task("T1")], ["a"], ["T1"], [1.0, 2.0], [0.0])


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,T1,1.0,-5", "line 3: timestamp must be non-negative, got -5.0"),
        ("a,T1,abc,0", "line 3: could not convert string to float: 'abc'"),
        ("a,T1,1.0,", "line 3: could not convert string to float: ''"),
    ],
)
def test_csv_loader_names_the_line(tmp_path, row, message):
    from repro.io import load_observations_csv

    path = tmp_path / "claims.csv"
    path.write_text(f"account_id,task_id,value,timestamp\nb,T1,2.0,1.0\n{row}\n")
    with pytest.raises(DataValidationError) as info:
        load_observations_csv(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"account_id": "a", "task_id": "T1", "value": 1.0}, "observation 1: missing 'timestamp'"),
        ({"account_id": "a", "task_id": "T1", "value": "1.0", "timestamp": 0.0},
         "observation 1: value must be a number, got '1.0'"),
        ({"account_id": "a", "task_id": "T1", "value": 1.0, "timestamp": True},
         "observation 1: timestamp must be a number, got True"),
        ({"account_id": "a", "task_id": "T1", "value": 1.0, "timestamp": -5},
         "observation 1: timestamp must be non-negative, got -5.0"),
        (["a", "T1", 1.0, 0.0], "observation 1: expected an object, got ['a', 'T1', 1.0, 0.0]"),
    ],
)
def test_json_loader_names_the_entry(tmp_path, entry, message):
    import json

    from repro.io import load_dataset_json

    good = {"account_id": "b", "task_id": "T1", "value": 2.0, "timestamp": 1.0}
    payload = {
        "format": "repro.dataset",
        "version": 1,
        "tasks": [{"task_id": "T1", "location": None, "description": ""}],
        "observations": [good, entry],
    }
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataValidationError) as info:
        load_dataset_json(path)
    assert str(info.value) == message



@pytest.mark.parametrize(
    "loader, payload, message",
    [
        ("load_dataset_json", [], "not a repro dataset file: expected an object, got list"),
        ("load_dataset_json", {"format": "repro.dataset", "observations": []},
         "repro dataset file: missing 'tasks'"),
        ("load_dataset_json", {"format": "repro.dataset", "tasks": []},
         "repro dataset file: missing 'observations'"),
        ("load_dataset_json", {"format": "repro.dataset", "tasks": 5, "observations": []},
         "repro dataset file: 'tasks' must be a list, got 5"),
        ("load_dataset_json",
         {"format": "repro.dataset", "tasks": [{"location": None}], "observations": []},
         "task 0: missing 'task_id'"),
        ("load_dataset_json", {"format": "repro.dataset", "tasks": ["T1"], "observations": []},
         "task 0: expected an object, got 'T1'"),
        ("load_grouping_json", {"format": "repro.grouping"}, "repro grouping file: missing 'groups'"),
        ("load_grouping_json", [["a", "b"]],
         "not a repro grouping file: expected an object, got list"),
    ],
)
def test_json_loaders_name_the_bad_payload(tmp_path, loader, payload, message):
    import json

    import repro.io

    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataValidationError) as info:
        getattr(repro.io, loader)(path)
    assert str(info.value) == message
