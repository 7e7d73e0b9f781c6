"""Categorical truth discovery — the non-numeric branch of the family.

The paper's framework targets numerical sensing data (Wi-Fi RSS, noise
levels), but CRH itself is defined for heterogeneous data: categorical
tasks ("is this hotspot open or secured?", "which carrier serves this
POI?") use 0/1 loss instead of squared deviation, and the truth update is
a weighted **majority vote** instead of a weighted mean.  This module
implements that branch with the same iteration protocol and the same
Sybil-resistant grouping front-end, so the framework covers both claim
types a real platform collects.

Data model: categorical claims are ``(account, task, label)`` triples
with hashable labels, held in :class:`CategoricalClaims` (one claim per
account/task pair, mirroring :class:`~repro.core.dataset.SensingDataset`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.truth_discovery import (
    ConvergencePolicy,
    WeightFunction,
    crh_log_weights,
)
from repro.core.types import AccountId, Grouping, TaskId
from repro.errors import DataValidationError

Label = Hashable


class CategoricalClaims:
    """A validated collection of categorical claims.

    Parameters
    ----------
    claims:
        Iterable of ``(account_id, task_id, label)`` triples; at most one
        claim per ``(account, task)`` pair.
    """

    def __init__(self, claims: Iterable[Tuple[AccountId, TaskId, Label]]):
        by_pair: Dict[Tuple[AccountId, TaskId], Label] = {}
        tasks: set = set()
        accounts: set = set()
        for account, task, label in claims:
            key = (account, task)
            if key in by_pair:
                raise DataValidationError(
                    f"duplicate claim for account {account!r} and task {task!r}"
                )
            by_pair[key] = label
            tasks.add(task)
            accounts.add(account)
        self._by_pair = by_pair
        self._tasks: Tuple[TaskId, ...] = tuple(sorted(tasks))
        self._accounts: Tuple[AccountId, ...] = tuple(sorted(accounts))

    @property
    def tasks(self) -> Tuple[TaskId, ...]:
        """Sorted task ids with at least one claim."""
        return self._tasks

    @property
    def accounts(self) -> Tuple[AccountId, ...]:
        """Sorted account ids with at least one claim."""
        return self._accounts

    def __len__(self) -> int:
        return len(self._by_pair)

    def label(self, account: AccountId, task: TaskId) -> Label:
        """The claimed label; ``KeyError`` if absent."""
        return self._by_pair[(account, task)]

    def claims_for_task(self, task: TaskId) -> Dict[AccountId, Label]:
        """All claims for one task."""
        return {
            account: label
            for (account, claimed_task), label in self._by_pair.items()
            if claimed_task == task
        }

    def task_set(self, account: AccountId) -> FrozenSet[TaskId]:
        """Tasks the account claimed."""
        return frozenset(
            task for (claimant, task) in self._by_pair if claimant == account
        )


@dataclass(frozen=True)
class CategoricalResult:
    """Truths (labels), per-source weights, and convergence diagnostics."""

    truths: Mapping[TaskId, Label]
    weights: Mapping[str, float]
    iterations: int
    converged: bool


class CategoricalTruthDiscovery:
    """CRH-style iteration for categorical claims.

    Weight update: a source's distance is the (weighted count of)
    disagreements between its labels and the current truths, through the
    decreasing functional ``W``.  Truth update: per task, the label with
    the largest total source weight.

    Parameters
    ----------
    weight_function:
        Monotonically decreasing ``W``; CRH log weights by default.
    convergence:
        Stops when no truth label changes, or at ``max_iterations``.
    grouping:
        Optional Sybil-defence partition: each group casts one vote per
        task (its internal majority label) and carries one weight —
        Algorithm 2 transplanted to 0/1 loss.
    """

    def __init__(
        self,
        weight_function: WeightFunction = crh_log_weights,
        convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
        grouping: Optional[Grouping] = None,
    ):
        self._weight_function = weight_function
        self._convergence = convergence
        self._grouping = grouping

    # ------------------------------------------------------------------

    def discover(self, claims: CategoricalClaims) -> CategoricalResult:
        """Run the iteration and return the label truths."""
        if len(claims) == 0:
            raise DataValidationError("cannot run truth discovery on empty claims")

        votes = self._collapse_to_sources(claims)
        sources = sorted({source for task_votes in votes.values() for source in task_votes})
        source_index = {source: k for k, source in enumerate(sources)}

        # Initialize truths by unweighted majority.
        truths: Dict[TaskId, Label] = {
            task: _majority(task_votes, {s: 1.0 for s in task_votes})
            for task, task_votes in votes.items()
        }

        converged = False
        iterations = 0
        weights = np.ones(len(sources))
        for iterations in range(1, self._convergence.max_iterations + 1):
            # Weight estimation: disagreement counts per source.
            distances = np.zeros(len(sources))
            for task, task_votes in votes.items():
                for source, label in task_votes.items():
                    if label != truths[task]:
                        distances[source_index[source]] += 1.0
            weights = self._weight_function(distances)
            weight_of = {source: float(weights[source_index[source]]) for source in sources}
            # Truth estimation: weighted majority per task.
            new_truths = {
                task: _majority(task_votes, weight_of)
                for task, task_votes in votes.items()
            }
            if new_truths == truths:
                converged = True
                truths = new_truths
                break
            truths = new_truths

        weight_map = {str(source): float(weights[source_index[source]]) for source in sources}
        return CategoricalResult(
            truths=truths,
            weights=weight_map,
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------------

    def _collapse_to_sources(
        self, claims: CategoricalClaims
    ) -> Dict[TaskId, Dict[str, Label]]:
        """Per task: one vote per source (account, or group majority)."""
        votes: Dict[TaskId, Dict[str, Label]] = {}
        for task in claims.tasks:
            per_source: Dict[str, List[Label]] = {}
            for account, label in claims.claims_for_task(task).items():
                per_source.setdefault(self._source_of(account), []).append(label)
            votes[task] = {
                source: _plurality(labels) for source, labels in per_source.items()
            }
        return votes

    def _source_of(self, account: AccountId) -> str:
        if self._grouping is not None and account in self._grouping:
            return f"g{self._grouping.group_index_of(account)}"
        return str(account)


def _plurality(labels: List[Label]) -> Label:
    """Most common label; ties break on label sort order (determinism)."""
    counts: Dict[Label, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], repr(label)))


def _majority(task_votes: Mapping[str, Label], weight_of: Mapping[str, float]) -> Label:
    """Weighted majority label; ties break on label sort order."""
    totals: Dict[Label, float] = {}
    for source, label in task_votes.items():
        totals[label] = totals.get(label, 0.0) + weight_of.get(source, 0.0)
    return min(totals, key=lambda label: (-totals[label], repr(label)))
