"""The sensing dataset: the one store of a campaign's claims.

:class:`SensingDataset` is the single input type shared by every truth
discovery algorithm and account-grouping method in this library.  It
keeps the claims ``(account i, task j, d_j^i, t_j^i)`` once, as parallel
account-index / task-index / value / timestamp arrays in the canonical
``(account, task)`` order of :class:`~repro.core.engine.ClaimMatrix`.
The claim matrix (Algorithms 1/2), ``T_i`` (AG-TS, Eq. 6) and the dense
matrix read that order; an account's time-ordered trajectory
``(X_i, Y_i)`` (AG-TR, Eq. 8) and ``U_j`` each read one cached
``lexsort`` of it.

The dataset is immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from itertools import repeat
from operator import attrgetter
from typing import Any, Collection, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import MAX_ABS_VALUE, AccountId, Observation, Task, TaskId
from repro.errors import DataValidationError
from repro.obs import get_tracer

_FIELDS = ("account_id", "task_id", "value", "timestamp")


def bound_violation(number: float) -> str:
    """Why ``number`` failed the ``abs(number) <= MAX_ABS_VALUE`` check."""
    if not math.isfinite(number):
        return f"is not finite: {number!r}"
    return f"exceeds the {MAX_ABS_VALUE:g} magnitude bound: {number!r}"


def intern(
    items: Collection, order: Optional[Sequence] = None
) -> Tuple[tuple, Dict[Any, int], np.ndarray]:
    """Integer codes for ``items``: ``(order, index, codes)``.

    ``order`` defaults to the sorted distinct items; ``index`` maps each
    item of ``order`` to its position, and ``codes[k]`` is the position
    of ``items[k]`` (-1 for an item not in ``order``).
    """
    order = tuple(sorted(set(items))) if order is None else tuple(order)
    index = {item: k for k, item in enumerate(order)}
    return order, index, np.fromiter(map(index.get, items, repeat(-1)), np.intp, len(items))


class SensingDataset:
    """All sensing data ``D`` submitted for one crowdsensing campaign.

    Parameters
    ----------
    tasks:
        The published task set ``T``.  Every observation must reference one
        of these tasks.
    observations:
        The flat list of timestamped reports.  At most one observation per
        ``(account, task)`` pair is allowed — the paper's systems restrict
        each *account* to one submission per task (Section III-C); Sybil
        attackers get around this precisely by using several accounts.

    Raises
    ------
    DataValidationError
        On duplicate ``(account, task)`` observations, unknown task ids,
        duplicate task ids, or observation values or timestamps that are
        not finite or exceed :data:`~repro.core.types.MAX_ABS_VALUE` in
        magnitude; the first invalid observation in input order is named.
    """

    def __init__(self, tasks: Iterable[Task], observations: Iterable[Observation]):
        self._ingest(tasks, None, list(observations))

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        tasks: Iterable[Task],
        account_ids: Sequence[AccountId],
        task_ids: Sequence[TaskId],
        values: Sequence[float],
        timestamps: Sequence[float],
    ) -> "SensingDataset":
        """Build a dataset from parallel per-claim sequences.

        Equal to ``SensingDataset(tasks, [Observation(a, t, v, ts), ...])``
        without the objects (the object views make them on demand), with
        the checks of both: numeric values and timestamps, non-negative
        timestamps, then the constructor's.  The first invalid claim in
        input order raises :class:`DataValidationError` naming its
        ``(account, task)`` pair.
        """
        dataset = cls.__new__(cls)
        dataset._ingest(tasks, (account_ids, task_ids, values, timestamps))
        return dataset

    @classmethod
    def from_matrix(
        cls,
        values: Sequence[Sequence[float]],
        account_ids: Optional[Sequence[AccountId]] = None,
        task_ids: Optional[Sequence[TaskId]] = None,
        timestamps: Optional[Sequence[Sequence[float]]] = None,
    ) -> "SensingDataset":
        """Build a dataset from a dense accounts × tasks matrix.

        ``NaN`` entries mean "account did not answer this task".  This is
        the most convenient way to transcribe the paper's worked examples
        (Tables I and III).

        Parameters
        ----------
        values:
            2-D array-like of shape ``(n_accounts, n_tasks)``.
        account_ids, task_ids:
            Optional explicit identifiers; default to ``"a0" ...`` and
            ``"T1" ...`` (1-based task names matching the paper's tables).
        timestamps:
            Optional matrix of the same shape giving submission times;
            defaults to the column index (tasks answered left to right).
        """
        arr = _matrix(values)
        if arr.ndim != 2:
            raise DataValidationError(f"matrix must be 2-D, got shape {arr.shape}")
        n_accounts, n_tasks = arr.shape
        if account_ids is None:
            account_ids = [f"a{i}" for i in range(n_accounts)]
        if task_ids is None:
            task_ids = [f"T{j + 1}" for j in range(n_tasks)]
        if len(account_ids) != n_accounts or len(task_ids) != n_tasks:
            raise DataValidationError("id lists must match matrix dimensions")
        if timestamps is None:
            ts = np.broadcast_to(np.arange(n_tasks, dtype=float), arr.shape)
        else:
            ts = _matrix(timestamps)
            if ts.shape != arr.shape:
                raise DataValidationError("timestamps must have the same shape as values")
        rows, cols = np.nonzero(arr == arr)  # NaN cells: no answer
        return cls.from_arrays(
            [Task(task_id=tid) for tid in task_ids],
            _object_array(account_ids)[rows],
            _object_array(task_ids)[cols],
            arr[rows, cols],
            ts[rows, cols],
        )

    def _ingest(self, tasks, columns, observations=None) -> None:
        """Validate the four claim columns (read from ``observations``
        when ``None``) and store them in canonical order."""
        with get_tracer().span("ingest.dataset") as span:
            task_list = list(tasks)
            declared = [task.task_id for task in task_list]
            if len(set(declared)) != len(declared):
                raise DataValidationError("duplicate task ids in task list")
            self._tasks: Dict[TaskId, Task] = dict(zip(declared, task_list))
            if columns is None:
                columns = [list(map(attrgetter(f), observations)) for f in _FIELDS]
            account_ids, task_ids, raw_values, raw_times = columns
            if not len(account_ids) == len(task_ids) == len(raw_values) == len(raw_times):
                raise DataValidationError(
                    "account_ids, task_ids, values and timestamps must have equal lengths"
                )
            (values, value_ok), (times, time_ok) = _numbers(raw_values), _numbers(raw_times)
            self._task_order, self._task_index, cols = intern(task_ids, sorted(self._tasks))
            self._account_order, self._account_index, rows = intern(account_ids)
            keys = rows.astype(np.int64) * len(self._task_order) + cols
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            invalid = ~value_ok | ~time_ok | (times < 0) | (cols < 0)
            invalid |= ~(np.abs(values) <= MAX_ABS_VALUE) | ~(times <= MAX_ABS_VALUE)
            invalid[order[1:][keys[1:] == keys[:-1]]] = True  # repeats an earlier pair
            if invalid.any():
                k = int(np.argmax(invalid))
                claim = [_scalar(column[k]) for column in columns]
                raise DataValidationError(_claim_problem(self._tasks, *claim))
            self._keys = keys
            self._rows, self._cols = rows[order], cols[order]
            self._values, self._times = values[order], times[order]
            self._observations = (
                None if observations is None else _object_array(observations)[order]
            )
            self._account_ptr = np.searchsorted(
                self._rows, np.arange(len(self._account_order) + 1)
            )
            self._by_account_time: Optional[np.ndarray] = None
            self._by_task_time: Optional[Tuple[np.ndarray, np.ndarray]] = None
            #: The ``ClaimMatrix``, compiled by ``ClaimMatrix.from_dataset``.
            self._compiled = None
            span.set("claims", len(keys))
            span.set("accounts", len(self._account_order))
            span.set("tasks", len(self._task_order))

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------

    @property
    def tasks(self) -> Tuple[TaskId, ...]:
        """Sorted tuple of all task ids (including unanswered tasks)."""
        return self._task_order

    @property
    def accounts(self) -> Tuple[AccountId, ...]:
        """Sorted tuple of all account ids that submitted at least one report."""
        return self._account_order

    def task(self, task_id: TaskId) -> Task:
        """The :class:`Task` object for ``task_id``."""
        return self._tasks[task_id]

    def __len__(self) -> int:
        """Total number of observations."""
        return len(self._keys)

    def __contains__(self, pair: Tuple[AccountId, TaskId]) -> bool:
        try:
            return isinstance(pair, tuple) and len(pair) == 2 and self._claim(*pair) >= 0
        except KeyError:
            return False

    # ------------------------------------------------------------------
    # Indexes used by the algorithms
    # ------------------------------------------------------------------

    def observations_for_task(self, task_id: TaskId) -> Tuple[Observation, ...]:
        """All reports for a task, ordered by timestamp."""
        return self._observations_at(self._task_claims(task_id))

    def observations_for_account(self, account_id: AccountId) -> Tuple[Observation, ...]:
        """The account's trajectory: its reports ordered by timestamp."""
        return self._observations_at(self._account_claims(account_id))

    def accounts_for_task(self, task_id: TaskId) -> Tuple[AccountId, ...]:
        """``U_j``: accounts that submitted data for ``tau_j``."""
        rows = self._rows[self._task_claims(task_id)].tolist()
        return tuple(map(self._account_order.__getitem__, rows))

    def task_set(self, account_id: AccountId) -> FrozenSet[TaskId]:
        """``T_i``: the accomplished task set of account ``i``."""
        cols = self._cols[self._account_slice(account_id)].tolist()
        return frozenset(map(self._task_order.__getitem__, cols))

    def value(self, account_id: AccountId, task_id: TaskId) -> float:
        """The datum ``d_j^i``; raises ``KeyError`` if absent."""
        return float(self._values[self._claim(account_id, task_id)])

    def timestamp(self, account_id: AccountId, task_id: TaskId) -> float:
        """The submission time ``t_j^i``; raises ``KeyError`` if absent."""
        return float(self._times[self._claim(account_id, task_id)])

    def activeness(self, account_id: AccountId) -> float:
        """Eq. 9: fraction of all tasks the account accomplished."""
        if not self._tasks:
            raise DataValidationError("dataset has no tasks")
        claims = self._account_slice(account_id)
        return (claims.stop - claims.start) / len(self._tasks)

    def trajectory(self, account_id: AccountId) -> Tuple[np.ndarray, np.ndarray]:
        """The account's task series ``X_i`` and timestamp series ``Y_i``.

        The task series encodes which tasks were performed, in time order,
        as numeric task indexes (position of the task id in :attr:`tasks`);
        the timestamp series gives the matching submission times.  These
        are the two time series AG-TR compares with DTW (Section IV-C).
        """
        claims = self._account_claims(account_id)
        return self._cols[claims].astype(float), self._times[claims]

    def to_matrix(self) -> Tuple[np.ndarray, Tuple[AccountId, ...], Tuple[TaskId, ...]]:
        """Dense accounts × tasks value matrix with ``NaN`` for no-answer.

        Returns the matrix along with the row (account) and column (task)
        orders used, both sorted.
        """
        matrix = np.full((len(self._account_order), len(self._task_order)), np.nan)
        matrix[self._rows, self._cols] = self._values
        return matrix, self._account_order, self._task_order

    # ------------------------------------------------------------------
    # Claim positions
    # ------------------------------------------------------------------

    def _claim(self, account_id: AccountId, task_id: TaskId) -> int:
        """The claim's position in the canonical order; ``KeyError`` if absent."""
        if account_id in self._account_index and task_id in self._task_index:
            row, col = self._account_index[account_id], self._task_index[task_id]
            key = row * len(self._task_order) + col
            k = int(np.searchsorted(self._keys, key))
            if k < len(self._keys) and self._keys[k] == key:
                return k
        raise KeyError((account_id, task_id))

    def _account_slice(self, account_id: AccountId) -> slice:
        row = self._account_index.get(account_id)
        if row is None:
            return slice(0, 0)
        return slice(int(self._account_ptr[row]), int(self._account_ptr[row + 1]))

    def _account_claims(self, account_id: AccountId) -> np.ndarray:
        """The account's claim positions ordered by ``(timestamp, task)``."""
        if self._by_account_time is None:
            self._by_account_time = np.lexsort((self._cols, self._times, self._rows))
        return self._by_account_time[self._account_slice(account_id)]

    def _task_claims(self, task_id: TaskId) -> np.ndarray:
        """The task's claim positions ordered by ``(timestamp, account)``."""
        if self._by_task_time is None:
            order = np.lexsort((self._rows, self._times, self._cols))
            ptr = np.searchsorted(self._cols[order], np.arange(len(self._task_order) + 1))
            self._by_task_time = order, ptr
        order, ptr = self._by_task_time
        col = self._task_index.get(task_id)
        return order[:0] if col is None else order[ptr[col] : ptr[col + 1]]

    def _observations_at(self, claims: np.ndarray) -> Tuple[Observation, ...]:
        if self._observations is not None:
            return tuple(self._observations[claims])
        return tuple(
            map(
                Observation,
                map(self._account_order.__getitem__, self._rows[claims].tolist()),
                map(self._task_order.__getitem__, self._cols[claims].tolist()),
                self._values[claims].tolist(),
                self._times[claims].tolist(),
            )
        )

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------

    def without_accounts(self, excluded: Iterable[AccountId]) -> "SensingDataset":
        """A copy of the dataset with all reports from ``excluded`` removed.

        Useful for computing the "without the Sybil attack" reference rows
        of Table I.
        """
        drop = set(excluded)
        kept = np.array([account not in drop for account in self._account_order], dtype=bool)
        return _concatenated(self._tasks.values(), [(self, kept[self._rows])])

    def merged_with(self, other: "SensingDataset") -> "SensingDataset":
        """Union of two datasets over the union of their task sets.

        Raises :class:`DataValidationError` if the datasets overlap on any
        ``(account, task)`` pair, since that would violate the one-report
        rule; the first overlap in ``other``'s ``(account, task)`` order
        is named.
        """
        tasks: Dict[TaskId, Task] = dict(self._tasks)
        for tid, task in other._tasks.items():
            tasks.setdefault(tid, task)
        return _concatenated(tasks.values(), [(self, slice(None)), (other, slice(None))])


def _concatenated(tasks, parts) -> SensingDataset:
    """A dataset of the ``(dataset, selection)`` parts' selected claims."""

    def pick(column) -> np.ndarray:
        return np.concatenate([column(part)[chosen] for part, chosen in parts])

    dataset = SensingDataset.__new__(SensingDataset)
    columns = (
        pick(lambda part: _object_array(part._account_order)[part._rows]),
        pick(lambda part: _object_array(part._task_order)[part._cols]),
        pick(attrgetter("_values")),
        pick(attrgetter("_times")),
    )
    with_objects = all(part._observations is not None for part, _ in parts)
    dataset._ingest(tasks, columns, pick(attrgetter("_observations")) if with_objects else None)
    return dataset


def _claim_problem(tasks: Dict[TaskId, Task], account, task, value, timestamp) -> str:
    """What is wrong with an invalid claim: the checks of
    :class:`Observation`, then the constructor's; a claim passing all of
    them repeats an earlier pair."""
    pair = f"({account!r}, {task!r})"
    if not isinstance(value, numbers.Real):
        return f"observation value for {pair} must be numeric, got {type(value)!r}"
    if not isinstance(timestamp, numbers.Real):
        return f"observation timestamp for {pair} must be numeric, got {type(timestamp)!r}"
    if timestamp < 0:
        return f"observation timestamp for {pair} must be non-negative, got {timestamp}"
    if task not in tasks:
        return f"observation references unknown task {task!r}"
    if not abs(value) <= MAX_ABS_VALUE:
        return f"observation value for {pair} {bound_violation(value)}"
    if not timestamp <= MAX_ABS_VALUE:
        return f"observation timestamp for {pair} {bound_violation(timestamp)}"
    return f"duplicate observation for account {account!r} and task {task!r}"


def _numbers(column) -> Tuple[np.ndarray, np.ndarray]:
    """A float64 copy of a claim column (``NaN`` where an entry is not a
    number) and the mask of its numeric entries."""
    arr = np.asarray(column)
    if arr.dtype.kind in "biuf":
        return arr.astype(float), np.ones(len(arr), dtype=bool)
    ok = np.array([isinstance(x, numbers.Real) for x in column], dtype=bool)
    return np.array([x if good else math.nan for x, good in zip(column, ok)], dtype=float), ok


def _matrix(cells) -> np.ndarray:
    """``cells`` as a float array, or as objects if some cell is not a
    number (for :meth:`SensingDataset.from_arrays` to name)."""
    try:
        return np.asarray(cells, dtype=float)
    except (TypeError, ValueError):
        return np.asarray(cells, dtype=object)


def _scalar(item):
    return item.item() if isinstance(item, np.generic) else item


def _object_array(items: Sequence) -> np.ndarray:
    return np.fromiter(items, dtype=object, count=len(items))
