"""Generic iterative truth discovery (Algorithm 1 of the paper).

A truth discovery algorithm alternates two phases until convergence:

* **weight estimation** — given current truth estimates ``d_j``, score each
  source by how far its data sits from the truths and map that distance to
  a weight through a monotonically decreasing functional ``W`` (Eq. 1);
* **truth estimation** — given the weights, re-estimate each task's truth as
  the weighted average of its claims (Eq. 2).

This module provides the public surface of the batch algorithms:

* :class:`ConvergencePolicy` — iteration budget and truth-change tolerance
  (defined in :mod:`repro.core.engine.loop`, re-exported here);
* weight functionals (:func:`crh_log_weights`, :func:`reciprocal_weights`,
  :func:`exponential_weights`) — different published instantiations of
  ``W``;
* :class:`TruthDiscoveryResult` — truths, per-source weights, and
  convergence diagnostics;
* :class:`IterativeTruthDiscovery` — Algorithm 1, parameterized by a
  distance normalisation, a weight functional and a truth step.
  :class:`repro.core.crh.CRH` and the GTM/CATD baselines are presets of it.

The iteration itself runs on the shared claim-matrix engine
(:mod:`repro.core.engine`): the dataset compiles once into CSR-style
claim arrays and every weight/truth round is two segment-sum kernels, so
this class is a thin adapter between :class:`SensingDataset` in and
:class:`TruthDiscoveryResult` out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.loop import (
    ConvergencePolicy,
    EngineResult,
    WeightFunction,
    run_convergence_loop,
)
from repro.core.engine.matrix import ClaimMatrix
from repro.core.types import TaskId
from repro.errors import DataValidationError
from repro.obs import get_tracer

__all__ = [
    "ConvergencePolicy",
    "IterativeTruthDiscovery",
    "TruthDiscoveryResult",
    "WeightFunction",
    "crh_log_weights",
    "exponential_weights",
    "reciprocal_weights",
    "weighted_median",
]


def crh_log_weights(distances: np.ndarray) -> np.ndarray:
    """CRH weight update: ``w_i = log(sum_k dist_k / dist_i)``.

    This is the weight functional of the CRH framework (Li et al.,
    SIGMOD 2014), obtained as the closed-form solution of CRH's joint
    optimization.  Sources whose claims sit exactly on the truths get the
    weight of an ``EPS`` distance — large but finite.  The total is summed
    exactly (``math.fsum``), so it does not depend on the source order.
    """
    distances = np.maximum(np.asarray(distances, dtype=float), EPS)
    total = math.fsum(distances.tolist())
    if total <= 0:
        return np.ones_like(distances)
    weights = np.log(total / distances)
    # log can go (slightly) negative for a source holding > 1/e of the total
    # distance mass; CRH clips those unreliable sources to zero influence.
    return np.maximum(weights, 0.0)


def reciprocal_weights(distances: np.ndarray) -> np.ndarray:
    """Inverse-distance weights ``w_i = 1 / dist_i`` (normalized).

    A simpler decreasing functional used by several truth discovery
    variants; more aggressive than CRH's logarithm.
    """
    distances = np.maximum(np.asarray(distances, dtype=float), EPS)
    weights = 1.0 / distances
    return weights / weights.sum()


def exponential_weights(distances: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Softmin weights ``w_i = exp(-dist_i / scale)`` (normalized).

    ``scale`` controls selectivity: small scales concentrate nearly all
    weight on the closest source.
    """
    distances = np.asarray(distances, dtype=float)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    shifted = distances - distances.min()
    weights = np.exp(-shifted / scale)
    return weights / weights.sum()


@dataclass(frozen=True)
class TruthDiscoveryResult:
    """Output of a truth discovery run.

    Attributes
    ----------
    truths:
        Estimated truth ``d_j`` for every task that received at least one
        claim.  Tasks with no claims are absent.
    weights:
        Final per-source weight.  For Algorithm 1 the sources are accounts;
        for Algorithm 2 (the Sybil-resistant framework) they are groups and
        this mapping is keyed by a group label — see
        :class:`repro.core.framework.FrameworkResult` which also exposes
        per-group detail.
    iterations:
        Number of weight/truth iterations executed.
    converged:
        Whether the tolerance criterion was met within the budget.
    truth_history:
        Truth vector after each iteration (in task-sorted order), useful
        for convergence plots and tests.
    """

    truths: Mapping[TaskId, float]
    weights: Mapping[str, float]
    iterations: int
    converged: bool
    truth_history: Tuple[Tuple[float, ...], ...] = field(default=())

    def truth_vector(self, task_order: Tuple[TaskId, ...]) -> np.ndarray:
        """Truths as an array in the given task order (``NaN`` if absent)."""
        return np.array([self.truths.get(tid, np.nan) for tid in task_order])


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """The weighted median: smallest value with half the weight at/below it.

    The robust alternative to Eq. 2's weighted mean — the minimizer of
    the weighted *absolute* deviation instead of the squared one.  Breaks
    only when the corrupted sources hold a strict weight majority.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise ValueError("weighted_median of an empty sample")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        # No usable weight: fall back to the plain median.
        return float(np.median(values))
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    index = int(np.searchsorted(cumulative, total / 2.0))
    index = min(index, len(values) - 1)
    return float(values[order][index])


class IterativeTruthDiscovery:
    """Algorithm 1: iterative weight/truth estimation over accounts.

    Every numeric engine in this library is this class with three choices
    made: the distance normalisation (``_normalize``: divide each claim's
    squared deviation by its task's claim spread, as CRH does), the
    weight functional ``W`` (:meth:`_weight_function_for`) and the truth
    step (``truth_estimator``).  :class:`~repro.core.crh.CRH`,
    :class:`~repro.core.baselines.GTM` and
    :class:`~repro.core.baselines.CATD` are presets of it; ``_name``
    names their spans, events, counters and strict-mode error.

    Parameters
    ----------
    weight_function:
        The monotonically decreasing functional ``W`` of Eq. 1.  Defaults
        to CRH's logarithmic weights.
    convergence:
        Stopping policy; defaults to 100 iterations / 1e-6 tolerance.
        Iteration-0 truths are the per-task claim means.
    truth_estimator:
        The truth update of Eq. 2: ``"mean"`` (default, the weighted
        average every algorithm in the paper uses) or ``"median"`` (the
        weighted median — a robust variant that resists a *sub-majority*
        of colluding weight; see the ABL-5 bench).
    """

    _normalize = True
    _name = "td"

    def __init__(
        self,
        weight_function: WeightFunction = crh_log_weights,
        convergence: ConvergencePolicy = ConvergencePolicy(),
        truth_estimator: str = "mean",
    ):
        if truth_estimator not in ("mean", "median"):
            raise ValueError(
                f"truth_estimator must be 'mean' or 'median', got {truth_estimator!r}"
            )
        self._weight_function = weight_function
        self._convergence = convergence
        self._truth_estimator = truth_estimator

    # ------------------------------------------------------------------

    def discover(self, dataset: SensingDataset) -> TruthDiscoveryResult:
        """Run Algorithm 1 on the dataset and return truths and weights."""
        if len(dataset) == 0:
            raise DataValidationError("cannot run truth discovery on an empty dataset")

        tracer = get_tracer()
        with tracer.span(
            f"{self._name}.discover",
            accounts=len(dataset.accounts),
            tasks=len(dataset.tasks),
        ) as span:
            with tracer.span("engine.compile"):
                matrix = ClaimMatrix.from_dataset(dataset)
            engine_result = run_convergence_loop(
                matrix,
                weight_function=self._weight_function_for(matrix),
                convergence=self._convergence,
                initial_truths=matrix.column_means(),
                normalize=self._normalize,
                truth_estimator=self._truth_estimator,
                name=self._name,
                span=span,
            )
        return _discovery_result(matrix, engine_result)

    def _weight_function_for(self, matrix: ClaimMatrix) -> WeightFunction:
        """The functional ``W`` for this matrix (presets read its row counts)."""
        return self._weight_function


def _truths_by_task(matrix: ClaimMatrix, truths: np.ndarray) -> Dict[TaskId, float]:
    """Per-column truths keyed by task id, over the answered columns only."""
    answered = matrix.answered_cols
    return {
        tid: float(truths[j])
        for j, tid in enumerate(matrix.col_labels)
        if answered[j]
    }


def _discovery_result(
    matrix: ClaimMatrix, engine_result: EngineResult
) -> TruthDiscoveryResult:
    """An engine result in matrix coordinates, keyed by task and account."""
    return TruthDiscoveryResult(
        truths=_truths_by_task(matrix, engine_result.truths),
        weights={
            account: float(w)
            for account, w in zip(matrix.row_labels, engine_result.weights)
        },
        iterations=engine_result.iterations,
        converged=engine_result.converged,
        truth_history=engine_result.history,
    )
