"""The array claim store against the dict-based reference it replaced.

Every public view of :class:`SensingDataset` must equal the reference
(:mod:`tests.core.dataset_oracle`) exactly, whichever constructor built
it, and invalid input must raise the same exception with the same
message.  Inputs mix unanswered tasks, equal timestamps, repeated
``(account, task)`` pairs, unknown tasks, out-of-bound numbers and
queries about accounts and tasks outside the dataset.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import SensingDataset
from repro.core.engine import ClaimMatrix
from repro.core.types import Observation, Task
from repro.errors import DataValidationError
from tests.core.dataset_oracle import OracleDataset

ACCOUNTS = ["a0", "a1", "a2", "b", "c"]
TASKS = ["T0", "T1", "T2", "T3"]
#: Queried but never declared or claimed.
OUTSIDERS = ["nobody", "T9"]

ok_values = st.sampled_from([0.0, 1.5, -2.0, 7.25, 1e100, -1e100])
ok_times = st.sampled_from([0.0, 1.0, 1.0, 2.5, 3600.0, 1e100])
bad_values = st.sampled_from([1e101, math.inf, -math.inf, math.nan])
bad_times = st.sampled_from([1e101, math.inf, math.nan])


@st.composite
def campaigns(draw, invalid=True):
    """Declared tasks and claims ``(account, task, value, timestamp)``."""
    declared = draw(st.lists(st.sampled_from(TASKS), unique=True))
    claim_tasks = st.sampled_from(declared) if declared else st.nothing()
    if invalid:
        claim_tasks = claim_tasks | st.sampled_from(TASKS)
        values = ok_values | bad_values
        times = ok_times | bad_times
    else:
        values, times = ok_values, ok_times
    claim = st.tuples(st.sampled_from(ACCOUNTS), claim_tasks, values, times)
    claims = draw(st.lists(claim, max_size=14) if declared or invalid else st.just([]))
    if not invalid:
        claims = list({(a, t): (a, t, v, ts) for a, t, v, ts in claims}.values())
    return [Task(t) for t in declared], claims


def _build(make):
    try:
        return make(), None
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return None, exc


def assert_same_failure(new_exc, old_exc):
    assert type(new_exc) is type(old_exc)
    assert str(new_exc) == str(old_exc)


def assert_same_views(new, old, observation_built=True):
    assert new.tasks == old.tasks
    assert new.accounts == old.accounts
    assert len(new) == len(old)
    for task in old.tasks:
        assert new.task(task) == old.task(task)
    for account in ACCOUNTS + OUTSIDERS:
        got, want = new.observations_for_account(account), old.observations_for_account(account)
        assert got == want
        if observation_built:
            assert all(a is b for a, b in zip(got, want))
        assert new.task_set(account) == old.task_set(account)
        xs, ys = new.trajectory(account)
        oxs, oys = old.trajectory(account)
        assert xs.dtype == oxs.dtype and ys.dtype == oys.dtype
        assert xs.tobytes() == oxs.tobytes() and ys.tobytes() == oys.tobytes()
        if old.tasks:
            assert new.activeness(account) == old.activeness(account)
        for task in TASKS + OUTSIDERS:
            assert ((account, task) in new) == ((account, task) in old)
            if (account, task) in old:
                assert new.value(account, task) == old.value(account, task)
                assert new.timestamp(account, task) == old.timestamp(account, task)
            else:
                for lookup in ("value", "timestamp"):
                    with pytest.raises(KeyError):
                        getattr(new, lookup)(account, task)
    for task in TASKS + OUTSIDERS:
        assert new.observations_for_task(task) == old.observations_for_task(task)
        assert new.accounts_for_task(task) == old.accounts_for_task(task)
    if not old.tasks:
        with pytest.raises(DataValidationError, match="no tasks"):
            new.activeness("a0")
    matrix, rows, cols = new.to_matrix()
    omatrix, orows, ocols = old.to_matrix()
    assert (rows, cols) == (orows, ocols)
    assert matrix.shape == omatrix.shape and matrix.tobytes() == omatrix.tobytes()


def _observations(claims):
    return [Observation(*claim) for claim in claims]


@settings(max_examples=300, deadline=None)
@given(campaigns())
def test_constructor_matches_reference(campaign):
    tasks, claims = campaign
    observations = _observations(claims)
    new, new_exc = _build(lambda: SensingDataset(tasks, observations))
    old, old_exc = _build(lambda: OracleDataset(tasks, observations))
    if old_exc is not None:
        assert_same_failure(new_exc, old_exc)
    else:
        assert new_exc is None
        assert_same_views(new, old)


@settings(max_examples=300, deadline=None)
@given(
    campaigns(),
    st.lists(st.sampled_from(["1.0", None, -1.0, -math.inf]), max_size=2),
    st.data(),
)
def test_from_arrays_matches_reference(campaign, faults, data):
    tasks, claims = campaign
    claims = [list(claim) for claim in claims]
    # Observation-level faults: a non-numeric value or a negative timestamp.
    for fault in faults:
        if claims:
            claim = claims[data.draw(st.integers(0, len(claims) - 1))]
            claim[2 if fault in ("1.0", None) else 3] = fault
    columns = [list(column) for column in zip(*claims)] or [[], [], [], []]
    new, new_exc = _build(lambda: SensingDataset.from_arrays(tasks, *columns))
    # The first invalid claim in input order: the first prefix the
    # reference rejects, with the Observation checks' message naming
    # the claim's pair.
    for k, (account, task, value, timestamp) in enumerate(claims):
        try:
            OracleDataset(tasks, _observations(claims[: k + 1]))
        except DataValidationError as exc:
            expected = str(exc)
        except TypeError:
            expected = (
                f"observation value for ({account!r}, {task!r}) "
                f"must be numeric, got {type(value)!r}"
            )
        except ValueError as exc:
            assert str(exc) == f"timestamp must be non-negative, got {timestamp}"
            expected = (
                f"observation timestamp for ({account!r}, {task!r}) "
                f"must be non-negative, got {timestamp}"
            )
        else:
            continue
        assert isinstance(new_exc, DataValidationError)
        assert str(new_exc) == expected
        return
    assert new_exc is None
    assert_same_views(new, OracleDataset(tasks, _observations(claims)), observation_built=False)


@settings(max_examples=150, deadline=None)
@given(campaigns(invalid=False), st.lists(st.sampled_from(ACCOUNTS + OUTSIDERS)))
def test_without_accounts_matches_reference(campaign, excluded):
    tasks, claims = campaign
    observations = _observations(claims)
    new = SensingDataset(tasks, observations).without_accounts(excluded)
    old = OracleDataset(tasks, observations).without_accounts(excluded)
    assert_same_views(new, old)
    columns = [list(column) for column in zip(*claims)] or [[], [], [], []]
    arrays = SensingDataset.from_arrays(tasks, *columns).without_accounts(excluded)
    assert_same_views(arrays, old, observation_built=False)


@settings(max_examples=150, deadline=None)
@given(campaigns(invalid=False), campaigns(invalid=False), st.booleans())
def test_merged_with_matches_reference(left, right, from_arrays):
    shared = {id(left): _observations(left[1]), id(right): _observations(right[1])}

    def build(cls, campaign):
        tasks, claims = campaign
        if cls is SensingDataset and from_arrays:
            columns = [list(column) for column in zip(*claims)] or [[], [], [], []]
            return SensingDataset.from_arrays(tasks, *columns)
        return cls(tasks, shared[id(campaign)])

    def merged(cls):
        return build(cls, left).merged_with(build(cls, right))

    new, new_exc = _build(lambda: merged(SensingDataset))
    old, old_exc = _build(lambda: merged(OracleDataset))
    if old_exc is None:
        assert new_exc is None
        assert_same_views(new, old, observation_built=not from_arrays)
        return
    # The reference names the first overlapping pair in the right dataset's
    # input order, the store the first in its (account, task) order.
    assert type(new_exc) is type(old_exc) is DataValidationError
    ours = {(a, t) for a, t, _, _ in left[1]}
    overlap = sorted((a, t) for a, t, _, _ in right[1] if (a, t) in ours)
    account, task = overlap[0]
    assert str(new_exc) == f"duplicate observation for account {account!r} and task {task!r}"
    if len(overlap) == 1:
        assert str(new_exc) == str(old_exc)


@settings(max_examples=150, deadline=None)
@given(campaigns(invalid=False))
def test_claim_matrix_is_the_reference_compile(campaign):
    tasks, claims = campaign
    observations = _observations(claims)
    dataset = SensingDataset(tasks, observations)
    matrix = ClaimMatrix.from_dataset(dataset)
    old = OracleDataset(tasks, observations)
    rows, cols, values = [], [], []
    for i, account in enumerate(old.accounts):
        for obs in old.observations_for_account(account):
            rows.append(i)
            cols.append(old.tasks.index(obs.task_id))
            values.append(obs.value)
    reference = ClaimMatrix(
        np.array(rows, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(values, dtype=float),
        n_rows=len(old.accounts),
        n_cols=len(old.tasks),
        row_labels=tuple(str(a) for a in old.accounts),
        col_labels=old.tasks,
    )
    for name in ("row_idx", "col_idx", "values"):
        got, want = getattr(matrix, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert (matrix.n_rows, matrix.n_cols) == (reference.n_rows, reference.n_cols)
    assert (matrix.row_labels, matrix.col_labels) == (reference.row_labels, reference.col_labels)
    # Compiled once: every caller shares the same read-only matrix.
    assert ClaimMatrix.from_dataset(dataset) is matrix
