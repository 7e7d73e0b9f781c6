"""Reference categorical truth discovery: the dict-of-dicts algorithm.

A test-only oracle for :class:`repro.core.categorical.CategoricalTruthDiscovery`:
the same iteration written as plain per-task Python loops over labels,
with every tie broken by ``repr``.  It reads the raw claim triples, so it
shares no code with the array implementation it checks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.categorical import CategoricalResult
from repro.core.truth_discovery import ConvergencePolicy, WeightFunction, crh_log_weights
from repro.core.types import Grouping


def oracle_discover(
    triples: Sequence[Tuple[object, object, object]],
    weight_function: WeightFunction = crh_log_weights,
    convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    grouping: Optional[Grouping] = None,
) -> CategoricalResult:
    """Categorical truth discovery on ``(account, task, label)`` triples."""

    def source_of(account) -> str:
        if grouping is not None and account in grouping:
            return f"g{grouping.group_index_of(account)}"
        return str(account)

    # Per task: its claims in claim order, then one plurality vote per source.
    by_task: Dict[object, Dict[object, object]] = {}
    for account, task, label in triples:
        by_task.setdefault(task, {})[account] = label
    votes: Dict[object, Dict[str, object]] = {}
    for task in sorted(by_task):
        per_source: Dict[str, List[object]] = {}
        for account, label in by_task[task].items():
            per_source.setdefault(source_of(account), []).append(label)
        votes[task] = {source: plurality(labels) for source, labels in per_source.items()}
    sources = sorted({source for task_votes in votes.values() for source in task_votes})
    source_index = {source: k for k, source in enumerate(sources)}

    truths = {
        task: majority(task_votes, {s: 1.0 for s in task_votes})
        for task, task_votes in votes.items()
    }
    converged = False
    iterations = 0
    weights = np.ones(len(sources))
    for iterations in range(1, convergence.max_iterations + 1):
        distances = np.zeros(len(sources))
        for task, task_votes in votes.items():
            for source, label in task_votes.items():
                if label != truths[task]:
                    distances[source_index[source]] += 1.0
        weights = weight_function(distances)
        weight_of = {source: float(weights[source_index[source]]) for source in sources}
        new_truths = {
            task: majority(task_votes, weight_of) for task, task_votes in votes.items()
        }
        if new_truths == truths:
            converged = True
            truths = new_truths
            break
        truths = new_truths

    return CategoricalResult(
        truths=truths,
        weights={str(s): float(weights[source_index[s]]) for s in sources},
        iterations=iterations,
        converged=converged,
    )


def plurality(labels: List[object]) -> object:
    """Most common label; ties break on ``repr`` order."""
    counts: Dict[object, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], repr(label)))


def majority(task_votes: Mapping[str, object], weight_of: Mapping[str, float]) -> object:
    """Weighted majority label; ties break on ``repr`` order."""
    totals: Dict[object, float] = {}
    for source, label in task_votes.items():
        totals[label] = totals.get(label, 0.0) + weight_of.get(source, 0.0)
    return min(totals, key=lambda label: (-totals[label], repr(label)))
