"""Reference claim store: the dict-based ``SensingDataset`` it replaced.

A test-only oracle for :class:`repro.core.dataset.SensingDataset`: the
same class kept verbatim as it was before the claims moved into
claim-order arrays (three dicts of :class:`Observation` objects, every
view rebuilt from them in Python).  It shares no code with the array
store it checks except the value types and the bound message helper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import bound_violation
from repro.core.types import MAX_ABS_VALUE, AccountId, Observation, Task, TaskId
from repro.errors import DataValidationError


class OracleDataset:
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
        magnitude.
    """

    def __init__(self, tasks: Iterable[Task], observations: Iterable[Observation]):
        task_list = list(tasks)
        task_ids = [task.task_id for task in task_list]
        if len(set(task_ids)) != len(task_ids):
            raise DataValidationError("duplicate task ids in task list")
        self._tasks: Dict[TaskId, Task] = {task.task_id: task for task in task_list}
        self._task_order: Tuple[TaskId, ...] = tuple(sorted(self._tasks))

        by_pair: Dict[Tuple[AccountId, TaskId], Observation] = {}
        by_account: Dict[AccountId, List[Observation]] = {}
        by_task: Dict[TaskId, List[Observation]] = {}
        for obs in observations:
            if obs.task_id not in self._tasks:
                raise DataValidationError(
                    f"observation references unknown task {obs.task_id!r}"
                )
            if not abs(obs.value) <= MAX_ABS_VALUE:
                raise DataValidationError(
                    f"observation value for ({obs.account_id!r}, {obs.task_id!r}) "
                    f"{bound_violation(obs.value)}"
                )
            if not obs.timestamp <= MAX_ABS_VALUE:
                raise DataValidationError(
                    f"observation timestamp for ({obs.account_id!r}, "
                    f"{obs.task_id!r}) {bound_violation(obs.timestamp)}"
                )
            key = (obs.account_id, obs.task_id)
            if key in by_pair:
                raise DataValidationError(
                    f"duplicate observation for account {obs.account_id!r} "
                    f"and task {obs.task_id!r}"
                )
            by_pair[key] = obs
            by_account.setdefault(obs.account_id, []).append(obs)
            by_task.setdefault(obs.task_id, []).append(obs)

        for obs_list in by_account.values():
            obs_list.sort(key=lambda o: (o.timestamp, o.task_id))
        for obs_list in by_task.values():
            obs_list.sort(key=lambda o: (o.timestamp, o.account_id))

        self._by_pair = by_pair
        self._by_account = by_account
        self._by_task = by_task
        self._account_order: Tuple[AccountId, ...] = tuple(sorted(by_account))

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_matrix(
        values: Sequence[Sequence[float]],
        account_ids: Optional[Sequence[AccountId]] = None,
        task_ids: Optional[Sequence[TaskId]] = None,
        timestamps: Optional[Sequence[Sequence[float]]] = None,
    ) -> "OracleDataset":
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
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise DataValidationError(f"matrix must be 2-D, got shape {arr.shape}")
        n_accounts, n_tasks = arr.shape
        if account_ids is None:
            account_ids = [f"a{i}" for i in range(n_accounts)]
        if task_ids is None:
            task_ids = [f"T{j + 1}" for j in range(n_tasks)]
        if len(account_ids) != n_accounts or len(task_ids) != n_tasks:
            raise DataValidationError("id lists must match matrix dimensions")
        ts = None if timestamps is None else np.asarray(timestamps, dtype=float)
        if ts is not None and ts.shape != arr.shape:
            raise DataValidationError("timestamps must have the same shape as values")

        tasks = [Task(task_id=tid) for tid in task_ids]
        observations = []
        for i in range(n_accounts):
            for j in range(n_tasks):
                if np.isnan(arr[i, j]):
                    continue
                when = float(ts[i, j]) if ts is not None else float(j)
                observations.append(
                    Observation(
                        account_id=account_ids[i],
                        task_id=task_ids[j],
                        value=float(arr[i, j]),
                        timestamp=when,
                    )
                )
        return OracleDataset(tasks, observations)

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
        return len(self._by_pair)

    def __contains__(self, pair: Tuple[AccountId, TaskId]) -> bool:
        return pair in self._by_pair

    # ------------------------------------------------------------------
    # Indexes used by the algorithms
    # ------------------------------------------------------------------

    def observations_for_task(self, task_id: TaskId) -> Tuple[Observation, ...]:
        """All reports for a task, ordered by timestamp."""
        return tuple(self._by_task.get(task_id, ()))

    def observations_for_account(self, account_id: AccountId) -> Tuple[Observation, ...]:
        """The account's trajectory: its reports ordered by timestamp."""
        return tuple(self._by_account.get(account_id, ()))

    def accounts_for_task(self, task_id: TaskId) -> Tuple[AccountId, ...]:
        """``U_j``: accounts that submitted data for ``tau_j``."""
        return tuple(obs.account_id for obs in self._by_task.get(task_id, ()))

    def task_set(self, account_id: AccountId) -> FrozenSet[TaskId]:
        """``T_i``: the accomplished task set of account ``i``."""
        return frozenset(obs.task_id for obs in self._by_account.get(account_id, ()))

    def value(self, account_id: AccountId, task_id: TaskId) -> float:
        """The datum ``d_j^i``; raises ``KeyError`` if absent."""
        return self._by_pair[(account_id, task_id)].value

    def timestamp(self, account_id: AccountId, task_id: TaskId) -> float:
        """The submission time ``t_j^i``; raises ``KeyError`` if absent."""
        return self._by_pair[(account_id, task_id)].timestamp

    def activeness(self, account_id: AccountId) -> float:
        """Eq. 9: fraction of all tasks the account accomplished."""
        if not self._tasks:
            raise DataValidationError("dataset has no tasks")
        return len(self.task_set(account_id)) / len(self._tasks)

    def trajectory(self, account_id: AccountId) -> Tuple[np.ndarray, np.ndarray]:
        """The account's task series ``X_i`` and timestamp series ``Y_i``.

        The task series encodes which tasks were performed, in time order,
        as numeric task indexes (position of the task id in :attr:`tasks`);
        the timestamp series gives the matching submission times.  These
        are the two time series AG-TR compares with DTW (Section IV-C).
        """
        observations = self.observations_for_account(account_id)
        task_index = {tid: k for k, tid in enumerate(self._task_order)}
        xs = np.array([task_index[obs.task_id] for obs in observations], dtype=float)
        ys = np.array([obs.timestamp for obs in observations], dtype=float)
        return xs, ys

    def to_matrix(self) -> Tuple[np.ndarray, Tuple[AccountId, ...], Tuple[TaskId, ...]]:
        """Dense accounts × tasks value matrix with ``NaN`` for no-answer.

        Returns the matrix along with the row (account) and column (task)
        orders used, both sorted.
        """
        matrix = np.full((len(self._account_order), len(self._task_order)), np.nan)
        col = {tid: j for j, tid in enumerate(self._task_order)}
        for i, account in enumerate(self._account_order):
            for obs in self._by_account[account]:
                matrix[i, col[obs.task_id]] = obs.value
        return matrix, self._account_order, self._task_order

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------

    def without_accounts(self, excluded: Iterable[AccountId]) -> "OracleDataset":
        """A copy of the dataset with all reports from ``excluded`` removed.

        Useful for computing the "without the Sybil attack" reference rows
        of Table I.
        """
        drop = set(excluded)
        kept = [
            obs
            for account, obs_list in self._by_account.items()
            if account not in drop
            for obs in obs_list
        ]
        return OracleDataset(self._tasks.values(), kept)

    def merged_with(self, other: "OracleDataset") -> "OracleDataset":
        """Union of two datasets over the union of their task sets.

        Raises :class:`DataValidationError` if the datasets overlap on any
        ``(account, task)`` pair, since that would violate the one-report
        rule.
        """
        tasks: Dict[TaskId, Task] = dict(self._tasks)
        for tid, task in other._tasks.items():
            tasks.setdefault(tid, task)
        all_obs = list(self._by_pair.values()) + list(other._by_pair.values())
        return OracleDataset(tasks.values(), all_obs)
