"""Reference numeric truth discovery: one private loop per engine.

A test-only oracle for :class:`repro.core.truth_discovery.IterativeTruthDiscovery`
and its presets (CRH, GTM, CATD) and for the framework's group-level
iteration, kept as they were before every numeric engine ran through one
``discover``: each engine compiles the matrix, builds its own weight
functional and runs its own copy of the weight/truth loop, and the
framework collapses its cells with an inline copy of each aggregation.
It shares the claim matrix, the segment-sum kernels and the Eq. 5
initializer with the code it checks, and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import stats

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.kernels import (
    segment_row_distances,
    segment_weighted_medians,
    segment_weighted_truths,
)
from repro.core.engine.loop import ConvergencePolicy, WeightFunction, initial_truths_eq5
from repro.core.engine.matrix import ClaimMatrix
from repro.core.grouping.base import AccountGrouper
from repro.core.truth_discovery import TruthDiscoveryResult, crh_log_weights
from repro.core.types import Grouping


def _loop(
    matrix: ClaimMatrix,
    weight_function: WeightFunction,
    convergence: ConvergencePolicy,
    initial_truths: np.ndarray,
    normalize: bool = True,
    truth_estimator: str = "mean",
) -> Tuple[np.ndarray, np.ndarray, int, bool, Tuple[Tuple[float, ...], ...]]:
    """The weight/truth iteration, without telemetry or strict mode."""
    values, row_idx, col_idx = matrix.content_claims()
    spreads = matrix.spreads if normalize else None
    update = (
        segment_weighted_truths if truth_estimator == "mean" else segment_weighted_medians
    )
    answered = matrix.answered_cols
    any_answered = bool(answered.any())
    truths = np.asarray(initial_truths, dtype=float).copy()
    history: List[Tuple[float, ...]] = []
    converged = False
    iterations = 0
    weights = np.ones(matrix.n_rows)
    for iterations in range(1, convergence.max_iterations + 1):
        distances = segment_row_distances(
            values, row_idx, col_idx, truths, matrix.n_rows, spreads
        )
        weights = weight_function(distances)
        new_truths = update(values, col_idx, weights[row_idx], matrix.n_cols, truths)
        delta = (
            float(np.max(np.abs(new_truths[answered] - truths[answered])))
            if any_answered
            else 0.0
        )
        truths = new_truths
        history.append(tuple(truths[answered]))
        if delta < convergence.tolerance:
            converged = True
            break
    return truths, weights, iterations, converged, tuple(history)


def _result(matrix, truths, weights, iterations, converged, history=()):
    answered = matrix.answered_cols
    return TruthDiscoveryResult(
        truths={
            tid: float(truths[j])
            for j, tid in enumerate(matrix.col_labels)
            if answered[j]
        },
        weights={account: float(w) for account, w in zip(matrix.row_labels, weights)},
        iterations=iterations,
        converged=converged,
        truth_history=history,
    )


def oracle_td(
    dataset: SensingDataset,
    weight_function: WeightFunction = crh_log_weights,
    convergence: ConvergencePolicy = ConvergencePolicy(),
    truth_estimator: str = "mean",
) -> TruthDiscoveryResult:
    """Algorithm 1 from mean initial truths (``CRH`` is the default)."""
    matrix = ClaimMatrix.from_dataset(dataset)
    return _result(
        matrix,
        *_loop(
            matrix,
            weight_function,
            convergence,
            matrix.column_means(),
            truth_estimator=truth_estimator,
        ),
    )


def oracle_gtm(
    dataset: SensingDataset,
    convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    alpha: float = 1.0,
    beta: float = 1.0,
) -> TruthDiscoveryResult:
    """GTM: precision weights from the prior-regularized residual variance."""
    matrix = ClaimMatrix.from_dataset(dataset)
    counts = matrix.claim_counts_by_row

    def gtm_precision(sse):
        variances = (beta + sse) / (alpha + counts)
        return 1.0 / np.maximum(variances, EPS)

    truths, weights, iterations, converged, _ = _loop(
        matrix, gtm_precision, convergence, matrix.column_means(), normalize=False
    )
    return _result(matrix, truths, weights, iterations, converged)


def oracle_catd(
    dataset: SensingDataset,
    significance: float = 0.05,
    convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
) -> TruthDiscoveryResult:
    """CATD: chi-squared quantile over the summed normalized error."""
    matrix = ClaimMatrix.from_dataset(dataset)
    quantiles = stats.chi2.ppf(significance, np.maximum(matrix.claim_counts_by_row, 1))

    def catd_weights(sse):
        return quantiles / np.maximum(sse, EPS)

    truths, weights, iterations, converged, _ = _loop(
        matrix, catd_weights, convergence, matrix.column_means()
    )
    return _result(matrix, truths, weights, iterations, converged)


def _aggregate_cells(values, inverse, counts, aggregation: str) -> np.ndarray:
    n_cells = len(counts)
    sums = np.bincount(inverse, weights=values, minlength=n_cells)
    if aggregation == "mean":
        return sums / counts
    if aggregation == "inverse_deviation":
        centers = sums / counts
        weights = 1.0 / (np.abs(values - centers[inverse]) + EPS)
        weighted = np.bincount(inverse, weights=weights * values, minlength=n_cells)
        mass = np.bincount(inverse, weights=weights, minlength=n_cells)
        return np.where(counts == 1, sums, weighted / mass)
    assert aggregation == "median"
    starts = np.concatenate(([0], np.cumsum(counts)))
    by_value = values[np.lexsort((values, inverse))]
    mid_lo = starts[:-1] + (counts - 1) // 2
    mid_hi = starts[:-1] + counts // 2
    return 0.5 * (by_value[mid_lo] + by_value[mid_hi])


def oracle_framework(
    dataset: SensingDataset,
    grouping: Grouping,
    aggregation: str = "inverse_deviation",
    convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    weight_function: WeightFunction = crh_log_weights,
) -> Tuple[Dict, Dict[int, float], int, bool, Tuple[Tuple[float, ...], ...]]:
    """Algorithm 2 with a given grouping: ``(truths, group_weights, iterations,
    converged, history)``."""
    grouping = AccountGrouper.complete(grouping.restricted_to(dataset.accounts), dataset)
    matrix = ClaimMatrix.from_dataset(dataset)
    row_to_group = np.array(
        [grouping.group_index_of(account) for account in dataset.accounts],
        dtype=np.intp,
    )
    n_groups = len(grouping)
    keys = row_to_group[matrix.row_idx] * matrix.n_cols + matrix.col_idx
    unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    cell_group, cell_col = np.divmod(unique_keys, matrix.n_cols)
    cell_values = _aggregate_cells(matrix.values, inverse, counts, aggregation)
    initial_weights = 1.0 - counts / matrix.claim_counts_by_col[cell_col]
    grouped = ClaimMatrix(
        cell_group,
        cell_col,
        cell_values,
        n_rows=n_groups,
        n_cols=matrix.n_cols,
        row_labels=tuple(str(g) for g in range(n_groups)),
        col_labels=matrix.col_labels,
    )
    initial = initial_truths_eq5(
        grouped.values, grouped.col_idx, initial_weights, grouped.n_cols
    )
    truths, weights, iterations, converged, history = _loop(
        grouped, weight_function, convergence, initial
    )
    answered = grouped.answered_cols
    truth_map = {
        tid: float(truths[j]) for j, tid in enumerate(grouped.col_labels) if answered[j]
    }
    group_weights = {gi: float(w) for gi, w in enumerate(weights)}
    return truth_map, group_weights, iterations, converged, history
