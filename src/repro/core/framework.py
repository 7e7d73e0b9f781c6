"""The Sybil-resistant truth discovery framework (Algorithm 2).

The framework wraps any truth-discovery weight functional with an account
grouping front-end:

1. **Account grouping** — an :class:`~repro.core.grouping.base.AccountGrouper`
   partitions accounts into groups ``G`` (one group ≈ one physical user).
2. **Data grouping** — for each task, the submissions of a group collapse
   into a single value ``d~_j^k`` (Eq. 3) so a Sybil attacker contributes
   *one* datum per task no matter how many accounts it used.  Each group
   gets an initial per-task weight ``w~_k = 1 - |g_k| / |U_j|`` (Eq. 4):
   the more accounts a group burned on a task, the less it is trusted.
3. **Initialization** — iteration-0 truths are the Eq. 4-weighted group
   averages (Eq. 5) rather than random guesses.
4. **Iteration** — group weight estimation (the CRH-style functional of
   Eq. 1 applied to group-level data) alternates with truth estimation
   (Eq. 2 over groups) until convergence.

Eq. 3 as printed in the paper is degenerate — its denominator
``sum_i (d_j^i - dbar_j^k)`` is identically zero because deviations from
the arithmetic mean cancel.  We implement the evident intent as the
*deviation-penalized* weighted mean (weights ``1 / (|d - dbar| + eps)``),
which matches the paper's own description of the mixed-group case ("the
aggregated data for the group will be close to the average of the data
submitted by both legitimate users and Sybil attackers").  The strategy is
pluggable; see :data:`GROUP_AGGREGATIONS` and the ABL-1 bench.

Steps 2–4 all run on the shared claim-matrix engine
(:mod:`repro.core.engine`): data grouping is a row compaction of the
compiled claim matrix (:func:`~repro.core.engine.matrix.compact_by_groups`),
Eq. 5 is one masked segment-sum, and the weight/truth loop is the same
:func:`~repro.core.engine.loop.run_convergence_loop` Algorithm 1 uses —
only the rows (groups instead of accounts) and the telemetry names differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.loop import initial_truths_eq5, run_convergence_loop
from repro.core.engine.matrix import ClaimMatrix, GroupedClaims, compact_by_groups
from repro.core.grouping.base import AccountGrouper
from repro.core.truth_discovery import (
    ConvergencePolicy,
    TruthDiscoveryResult,
    WeightFunction,
    crh_log_weights,
)
from repro.core.types import Grouping, TaskId
from repro.errors import DataValidationError
from repro.obs import get_tracer

#: A group-aggregation strategy maps the values one group submitted for
#: one task to a single representative value.
GroupAggregation = Callable[[np.ndarray], float]


def aggregate_inverse_deviation(values: np.ndarray) -> float:
    """Eq. 3 (repaired): mean weighted by inverse deviation from the mean.

    Claims close to the group's own consensus dominate; an outlier inside
    the group is damped.  For one or two claims, or a constant group, this
    reduces to the arithmetic mean.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 1:
        return float(values[0])
    center = values.mean()
    weights = 1.0 / (np.abs(values - center) + EPS)
    # A constant group makes every weight equal (1/eps); the weighted mean
    # is then exactly the common value.
    return float((weights * values).sum() / weights.sum())


def aggregate_mean(values: np.ndarray) -> float:
    """Arithmetic mean of the group's claims."""
    return float(np.asarray(values, dtype=float).mean())


def aggregate_median(values: np.ndarray) -> float:
    """Median of the group's claims (robust to one wild account)."""
    return float(np.median(np.asarray(values, dtype=float)))


#: Named registry of group-aggregation strategies (ABL-1 sweeps these).
#: The engine's row compaction recognizes these three and runs them fully
#: vectorized; arbitrary callables work too, one call per (group, task).
GROUP_AGGREGATIONS: Dict[str, GroupAggregation] = {
    "inverse_deviation": aggregate_inverse_deviation,
    "mean": aggregate_mean,
    "median": aggregate_median,
}


@dataclass(frozen=True)
class FrameworkResult:
    """Everything Algorithm 2 produced, beyond the plain TD result.

    Attributes
    ----------
    truths:
        Final estimated truth per answered task.
    grouping:
        The account partition used (projected onto dataset accounts).
    group_values:
        ``{task_id: {group_index: d~_j^k}}`` — the grouped data (Eq. 3).
    initial_group_weights:
        ``{task_id: {group_index: w~_k}}`` — the Eq. 4 weights used for
        initialization.
    group_weights:
        Final iterated weight per group index.
    iterations, converged, truth_history:
        Convergence diagnostics, as in
        :class:`~repro.core.truth_discovery.TruthDiscoveryResult`.
    """

    truths: Mapping[TaskId, float]
    grouping: Grouping
    group_values: Mapping[TaskId, Mapping[int, float]]
    initial_group_weights: Mapping[TaskId, Mapping[int, float]]
    group_weights: Mapping[int, float]
    iterations: int
    converged: bool
    truth_history: Tuple[Tuple[float, ...], ...] = field(default=())

    def as_truth_discovery_result(self) -> TruthDiscoveryResult:
        """View as a plain TD result (weights keyed by group index)."""
        return TruthDiscoveryResult(
            truths=self.truths,
            weights={str(k): v for k, v in self.group_weights.items()},
            iterations=self.iterations,
            converged=self.converged,
            truth_history=self.truth_history,
        )


class SybilResistantTruthDiscovery:
    """Algorithm 2: grouping-aware truth discovery.

    Parameters
    ----------
    grouper:
        The account grouping strategy (AG-FP / AG-TS / AG-TR / combined).
        Alternatively pass a precomputed partition to :meth:`discover` and
        the grouper is not consulted.
    aggregation:
        Group-aggregation strategy name (key of
        :data:`GROUP_AGGREGATIONS`) or a callable.  Default
        ``"inverse_deviation"`` — the repaired Eq. 3.
    weight_function:
        The monotonically decreasing functional for the group weight
        update (Algorithm 2 line 10).  Default: CRH's log weights, making
        the framework "a truth discovery algorithm similar to CRH" as in
        the paper's evaluation.
    convergence:
        Stopping policy for the weight/truth loop.
    """

    def __init__(
        self,
        grouper: Optional[AccountGrouper] = None,
        aggregation: object = "inverse_deviation",
        weight_function: WeightFunction = crh_log_weights,
        convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    ):
        if callable(aggregation):
            self._aggregate: GroupAggregation = aggregation  # type: ignore[assignment]
        else:
            try:
                self._aggregate = GROUP_AGGREGATIONS[str(aggregation)]
            except KeyError:
                raise ValueError(
                    f"unknown aggregation {aggregation!r}; "
                    f"expected one of {sorted(GROUP_AGGREGATIONS)} or a callable"
                ) from None
        self._grouper = grouper
        self._weight_function = weight_function
        self._convergence = convergence

    # ------------------------------------------------------------------

    def discover(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
        grouping: Optional[Grouping] = None,
    ) -> FrameworkResult:
        """Run Algorithm 2 end to end.

        Account grouping (AG-FP / Eq. 6 AG-TS / Eqs. 7-8 AG-TR) first
        partitions the accounts; data grouping collapses each group's
        per-task claims via Eq. 3 and assigns the Eq. 4 initial weights;
        Eq. 5 seeds the truths; then group-level weight estimation
        (Eq. 1) alternates with truth estimation (Eq. 2) until
        convergence.

        Parameters
        ----------
        dataset:
            The sensing data ``D``.
        fingerprints:
            The device fingerprints ``F`` (needed iff the grouper is
            AG-FP or a combination including it).
        grouping:
            Optional precomputed partition; skips the grouping step.

        Raises
        ------
        DataValidationError
            If the dataset is empty, or no grouper *and* no grouping was
            provided.
        """
        if len(dataset) == 0:
            raise DataValidationError("cannot run the framework on an empty dataset")
        tracer = get_tracer()
        with tracer.span(
            "framework.discover",
            accounts=len(dataset.accounts),
            tasks=len(dataset.tasks),
        ) as span:
            if grouping is None:
                if self._grouper is None:
                    raise DataValidationError(
                        "either construct with a grouper or pass a grouping"
                    )
                with tracer.span(
                    "framework.account_grouping",
                    grouper=type(self._grouper).__name__,
                ):
                    grouping = self._grouper.group(dataset, fingerprints)
            grouping = AccountGrouper.complete(
                grouping.restricted_to(dataset.accounts), dataset
            )
            span.set("groups", len(grouping))

            with tracer.span("framework.data_grouping", groups=len(grouping)):
                with tracer.span("engine.compile"):
                    matrix = ClaimMatrix.from_dataset(dataset)
                row_to_group = [
                    grouping.group_index_of(account) for account in dataset.accounts
                ]
                grouped = compact_by_groups(
                    matrix, row_to_group, len(grouping), self._aggregate
                )
            return self._iterate(grouping, grouped)

    # ------------------------------------------------------------------

    def _iterate(self, grouping: Grouping, grouped: GroupedClaims) -> FrameworkResult:
        """Algorithm 2 lines 7–15: Eq. 5 initialization and the engine loop."""
        gm = grouped.matrix
        answered = gm.answered_cols
        n_answered = int(answered.sum())

        tracer = get_tracer()
        with tracer.span(
            "framework.iterate", groups=gm.n_rows, tasks=n_answered
        ) as span:
            initial = initial_truths_eq5(
                gm.values, gm.col_idx, grouped.initial_weights, gm.n_cols
            )
            engine_result = run_convergence_loop(
                gm,
                weight_function=self._weight_function,
                convergence=self._convergence,
                initial_truths=initial,
                normalize=True,
                event_name="framework.iteration",
                metrics_prefix="framework",
                span=span,
                error_subject="framework",
            )

        truth_map = {
            tid: float(engine_result.truths[j])
            for j, tid in enumerate(gm.col_labels)
            if answered[j]
        }
        # Re-expand the cell arrays into the per-task mapping views the
        # result contract exposes (cells visited in task-major order).
        group_values: Dict[TaskId, Dict[int, float]] = {}
        initial_group_weights: Dict[TaskId, Dict[int, float]] = {}
        answered_cols = np.flatnonzero(answered)
        segments = np.split(
            np.argsort(gm.col_idx, kind="stable"),
            np.cumsum(gm.claim_counts_by_col[answered_cols])[:-1],
        )
        for col, task_cells in zip(answered_cols.tolist(), segments):
            tid = gm.col_labels[col]
            groups = gm.row_idx[task_cells].tolist()
            group_values[tid] = dict(zip(groups, gm.values[task_cells].tolist()))
            initial_group_weights[tid] = dict(
                zip(groups, grouped.initial_weights[task_cells].tolist())
            )
        return FrameworkResult(
            truths=truth_map,
            grouping=grouping,
            group_values=group_values,
            initial_group_weights=initial_group_weights,
            group_weights={
                gi: float(w) for gi, w in enumerate(engine_result.weights)
            },
            iterations=engine_result.iterations,
            converged=engine_result.converged,
            truth_history=engine_result.history,
        )
