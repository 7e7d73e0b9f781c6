"""Core value types for the mobile-crowdsensing data model.

The paper's system model (Section III-A) has three first-class notions:

* a set of *sensing tasks* ``T = {tau_1 ... tau_m}``, each asking for a
  numerical measurement (e.g. Wi-Fi signal strength at a POI);
* a set of *accounts* ``U = {1 ... n}`` submitting data — note the paper
  deliberately says *accounts*, not users, because one Sybil attacker
  controls several accounts (Section IV);
* timestamped numerical *observations* ``(d_j^i, t_j^i)``.

This module defines immutable dataclasses for those notions plus
:class:`Grouping`, the partition of accounts produced by an account-grouping
method (Section IV-C).  Everything here is plain data: algorithms live in
sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

# MAX_ABS_VALUE, the ingest magnitude bound, is defined beside the errors that
# enforce it and kept importable from here.
from repro.errors import MAX_ABS_VALUE, PartitionError

#: Identifier type for accounts.  Strings keep the paper's examples readable
#: (accounts "4'", "4''", "4'''") while remaining hashable and sortable.
AccountId = str

#: Identifier type for tasks (e.g. ``"T1"`` or ``"poi-3"``).
TaskId = str

@dataclass(frozen=True)
class Task:
    """A sensing task published by the platform.

    Parameters
    ----------
    task_id:
        Unique identifier of the task.
    location:
        Optional ``(x, y)`` coordinates of the sensing region (used by the
        trajectory simulator to derive walking times between POIs).
    description:
        Human-readable description, e.g. ``"Wi-Fi RSS at library entrance"``.
    """

    task_id: TaskId
    location: Optional[Tuple[float, float]] = None
    description: str = ""

    def distance_to(self, other: "Task") -> float:
        """Euclidean distance between two task locations.

        Raises
        ------
        ValueError
            If either task has no location.
        """
        if self.location is None or other.location is None:
            raise ValueError(
                f"tasks {self.task_id!r} and {other.task_id!r} must both "
                "have locations to compute a distance"
            )
        dx = self.location[0] - other.location[0]
        dy = self.location[1] - other.location[1]
        return float((dx * dx + dy * dy) ** 0.5)


@dataclass(frozen=True)
class Observation:
    """One timestamped sensing report ``(d_j^i, t_j^i)``.

    Parameters
    ----------
    account_id:
        The submitting account (what the platform sees; possibly one of
        several accounts of a Sybil attacker).
    task_id:
        The task the report answers.
    value:
        The numerical sensing datum ``d_j^i`` (e.g. dBm).
    timestamp:
        Submission time ``t_j^i`` in seconds since scenario start.  The
        paper assumes timestamps cannot be fabricated (Section III-C), so
        they are trusted inputs to AG-TR.
    """

    account_id: AccountId
    task_id: TaskId
    value: float
    timestamp: float

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)):
            raise TypeError(f"observation value must be numeric, got {type(self.value)!r}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")


@dataclass(frozen=True)
class Grouping:
    """A partition of account ids into groups ``G = {g_1 ... g_l}``.

    Each group collects accounts the grouping method believes belong to one
    physical user (Section IV-B): groups are pairwise disjoint and cover the
    whole account set.  The framework treats each group as a single
    pseudo-source during truth discovery.

    Construct with :meth:`from_groups` (validates the partition) or
    :meth:`singletons` (the trivial no-grouping partition, under which
    Algorithm 2 degenerates to per-account truth discovery).
    """

    groups: Tuple[FrozenSet[AccountId], ...]
    _index: Mapping[AccountId, int] = field(repr=False, hash=False, compare=False, default=None)  # type: ignore[assignment]

    @staticmethod
    def from_groups(groups: Iterable[Iterable[AccountId]]) -> "Grouping":
        """Build a grouping from an iterable of account collections.

        Empty groups are dropped.  Raises :class:`PartitionError` if any
        account appears in more than one group.
        """
        frozen: List[FrozenSet[AccountId]] = []
        seen: Dict[AccountId, int] = {}
        for raw in groups:
            members = frozenset(raw)
            if not members:
                continue
            for account in members:
                if account in seen:
                    raise PartitionError(
                        f"account {account!r} appears in more than one group"
                    )
                seen[account] = len(frozen)
            frozen.append(members)
        # Deterministic order: sort groups by their smallest member so that
        # equal partitions compare equal regardless of construction order.
        order = sorted(range(len(frozen)), key=lambda k: min(frozen[k]))
        ordered = tuple(frozen[k] for k in order)
        index = {account: gi for gi, members in enumerate(ordered) for account in members}
        return Grouping(groups=ordered, _index=index)

    @staticmethod
    def singletons(accounts: Iterable[AccountId]) -> "Grouping":
        """The trivial partition where every account is its own group."""
        return Grouping.from_groups([[account] for account in set(accounts)])

    def __post_init__(self) -> None:
        if self._index is None:
            index = {
                account: gi
                for gi, members in enumerate(self.groups)
                for account in members
            }
            object.__setattr__(self, "_index", index)

    @property
    def accounts(self) -> FrozenSet[AccountId]:
        """All accounts covered by this grouping."""
        return frozenset(self._index)

    def __len__(self) -> int:
        return len(self.groups)

    def __contains__(self, account_id: object) -> bool:
        """Whether ``account_id`` is covered (O(1), unlike ``accounts``)."""
        return account_id in self._index

    def __iter__(self) -> Iterator[FrozenSet[AccountId]]:
        return iter(self.groups)

    def group_of(self, account_id: AccountId) -> FrozenSet[AccountId]:
        """Return the group containing ``account_id``.

        Raises
        ------
        KeyError
            If the account is not covered by this grouping.
        """
        return self.groups[self._index[account_id]]

    def group_index_of(self, account_id: AccountId) -> int:
        """Return the positional index of the group containing the account."""
        return self._index[account_id]

    def as_labels(self, order: Sequence[AccountId]) -> List[int]:
        """Express the partition as integer cluster labels.

        Parameters
        ----------
        order:
            The account order defining label positions — typically a sorted
            account list shared with a reference partition, so the result
            can be fed to :func:`repro.ml.metrics.adjusted_rand_index`.
        """
        return [self._index[account] for account in order]

    def non_singleton_groups(self) -> Tuple[FrozenSet[AccountId], ...]:
        """Groups with at least two members — the *suspicious* groups."""
        return tuple(members for members in self.groups if len(members) > 1)

    def restricted_to(self, accounts: Iterable[AccountId]) -> "Grouping":
        """Project the partition onto a subset of accounts.

        Used when evaluating a grouping against a scenario in which some
        accounts submitted no data (they cannot be grouped by AG-TS/AG-TR).
        """
        keep = set(accounts)
        return Grouping.from_groups(
            [members & keep for members in self.groups if members & keep]
        )


def source_name(grouping: Optional[Grouping], account_id: AccountId) -> str:
    """The source an account votes as in the streaming and categorical engines.

    Algorithm 2 makes each group one source: an account the grouping
    covers is ``g{group index}``; any other account is ``str(account_id)``.
    """
    if grouping is not None and account_id in grouping:
        return f"g{grouping.group_index_of(account_id)}"
    return str(account_id)
