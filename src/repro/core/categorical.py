"""Categorical truth discovery — the non-numeric branch of the family.

The paper's framework targets numerical sensing data (Wi-Fi RSS, noise
levels), but CRH itself is defined for heterogeneous data: categorical
tasks ("is this hotspot open or secured?", "which carrier serves this
POI?") use 0/1 loss instead of squared deviation, and the truth update is
a weighted **majority vote** instead of a weighted mean.  This module
implements that branch with the same iteration protocol and the same
Sybil-resistant grouping front-end, so the framework covers both claim
types a real platform collects.  Claims are ``(account, task, label)``
triples with hashable labels (one per account/task pair), compiled once
into integer arrays so that every vote tally is one ``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping
from typing import Optional, Tuple

import numpy as np

from repro.core.dataset import intern
from repro.core.truth_discovery import ConvergencePolicy, WeightFunction, crh_log_weights
from repro.core.types import AccountId, Grouping, TaskId, source_name
from repro.errors import ConvergenceError, DataValidationError
from repro.obs import get_metrics, get_tracer, weight_entropy

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
        claims = list(claims)
        accounts = [account for account, _, _ in claims]
        tasks = [task for _, task, _ in claims]
        labels = [label for _, _, label in claims]
        # The claims, stored once as claim-order arrays; codes follow
        # ``repr`` order, the vote tie-break.
        self._tasks, self._task_index, self._task_idx = intern(tasks)
        self._accounts, self._account_index, self._account_idx = intern(accounts)
        self._labels, _, self._codes = intern(labels, sorted(set(labels), key=repr))
        keys = self._account_idx.astype(np.int64) * len(self._tasks) + self._task_idx
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if len(repeats):
            k = int(repeats.min())
            raise DataValidationError(
                f"duplicate claim for account {accounts[k]!r} and task {tasks[k]!r}"
            )

    @property
    def tasks(self) -> Tuple[TaskId, ...]:
        """Sorted task ids with at least one claim."""
        return self._tasks

    @property
    def accounts(self) -> Tuple[AccountId, ...]:
        """Sorted account ids with at least one claim."""
        return self._accounts

    def __len__(self) -> int:
        return len(self._codes)

    def label(self, account: AccountId, task: TaskId) -> Label:
        """The claimed label; ``KeyError`` if absent."""
        try:
            return self.claims_for_task(task)[account]
        except KeyError:
            raise KeyError((account, task)) from None

    def claims_for_task(self, task: TaskId) -> Dict[AccountId, Label]:
        """All claims for one task, in claim order."""
        hits = self._task_idx == self._task_index.get(task, -1)
        return {
            self._accounts[a]: self._labels[c]
            for a, c in zip(self._account_idx[hits].tolist(), self._codes[hits].tolist())
        }

    def task_set(self, account: AccountId) -> FrozenSet[TaskId]:
        """Tasks the account claimed."""
        hits = self._account_idx == self._account_index.get(account, -1)
        return frozenset(map(self._tasks.__getitem__, self._task_idx[hits].tolist()))


@dataclass(frozen=True)
class CategoricalResult:
    """Truths (labels), per-source weights, and convergence diagnostics."""

    truths: Mapping[TaskId, Label]
    weights: Mapping[str, float]
    iterations: int
    converged: bool


class CategoricalTruthDiscovery:
    """CRH-style iteration for categorical claims.

    Weight update: a source's distance is its number of disagreements with
    the current truths, through the decreasing functional ``W``.  Truth
    update: per task, the label with the largest total source weight, ties
    to the label first in ``repr`` order.

    ``weight_function`` is ``W`` (CRH log weights by default).  The
    iteration stops when no truth label changes, or at the
    ``convergence`` budget (raising ``ConvergenceError`` if ``strict``).
    With a ``grouping`` (the Sybil defence), each group casts one vote per
    task, its internal plurality label (ties as above), and carries one
    weight: Algorithm 2 transplanted to 0/1 loss.
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

    def discover(self, claims: CategoricalClaims) -> CategoricalResult:
        """Run the iteration and return the label truths."""
        if len(claims) == 0:
            raise DataValidationError("cannot run truth discovery on empty claims")
        tracer = get_tracer()
        with tracer.span("categorical.discover", claims=len(claims)) as span:
            sources, vote_task, vote_source, vote_code = self._collapse_to_sources(claims)
            ballot = _Ballot(vote_task, vote_code, len(claims._labels))
            truth = ballot.winners()
            for iterations in range(1, self._convergence.max_iterations + 1):
                wrong = vote_code != truth[vote_task]
                weights = self._weight_function(np.bincount(vote_source, wrong, len(sources)))
                truth, previous = ballot.winners(weights[vote_source]), truth
                changed = np.count_nonzero(truth != previous)
                if tracer.enabled:
                    tracer.event(
                        "categorical.iteration",
                        iteration=iterations,
                        labels_changed=changed,
                        weight_entropy=weight_entropy(weights),
                    )
                if changed == 0:
                    break
            converged = changed == 0
            get_metrics().counter("categorical.runs").inc()
            get_metrics().counter("categorical.iterations").inc(iterations)
            failed = not converged and self._convergence.strict
            stop = "converged" if converged else "max_iterations"
            span.set("iterations", iterations)
            span.set("stop_reason", "convergence_error" if failed else stop)
            if failed:
                raise ConvergenceError(
                    f"categorical truth discovery did not converge in {iterations} iterations"
                )
        return CategoricalResult(
            truths={t: claims._labels[k] for t, k in zip(claims.tasks, truth.tolist())},
            weights=dict(zip(sources, weights.tolist())),
            iterations=iterations,
            converged=converged,
        )

    def _collapse_to_sources(self, claims: CategoricalClaims):
        """Sorted source names (``g{group}`` or ``str(account)``) and one vote
        per (task, source): its plurality label.  Votes are ordered by task,
        then by the source's first claim on it, so each weighted total adds
        the same floats in the same order as a per-task loop over claims."""
        names = [source_name(self._grouping, a) for a in claims.accounts]
        sources, _, source_of = intern(names)
        cell = claims._task_idx * len(sources) + source_of[claims._account_idx]
        # Dense (task, source) cell ids keep every int64 key below n_claims**2.
        cells, cell = np.unique(cell, return_inverse=True)
        ballot = _Ballot(cell, claims._codes, len(claims._labels))
        first = np.full(len(cells), len(cell))
        np.minimum.at(first, cell, np.arange(len(cell)))
        vote_task, vote_source = np.divmod(cells, len(sources))
        order = np.argsort(vote_task * len(cell) + first)
        return sources, vote_task[order], vote_source[order], ballot.winners()[order]


class _Ballot:
    """Votes ``(group, code)`` for groups numbered ``0..G-1`` without gaps.
    :meth:`winners` picks each group's code of largest total vote weight
    (ties to the smallest code), each total summed in vote order."""

    def __init__(self, group: np.ndarray, code: np.ndarray, n_codes: int):
        keys, self._key_of = np.unique(group * n_codes + code, return_inverse=True)
        self._group, self._code = np.divmod(keys, n_codes)
        self._starts = np.flatnonzero(np.r_[True, self._group[1:] != self._group[:-1]])

    def winners(self, weights: Optional[np.ndarray] = None) -> np.ndarray:
        totals = np.bincount(self._key_of, weights, minlength=len(self._code))
        best = np.maximum.reduceat(totals, self._starts)[self._group]
        hits = np.where(totals == best, np.arange(len(totals)), len(totals))
        return self._code[np.minimum.reduceat(hits, self._starts)]

