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
* :class:`IterativeTruthDiscovery` — Algorithm 1, parameterized by a weight
  functional.  :class:`repro.core.crh.CRH` is a thin preset of it.

The iteration itself runs on the shared claim-matrix engine
(:mod:`repro.core.engine`): the dataset compiles once into CSR-style
claim arrays and every weight/truth round is two segment-sum kernels, so
this class is a thin adapter between :class:`SensingDataset` in and
:class:`TruthDiscoveryResult` out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.loop import (
    ConvergencePolicy,
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

    Parameters
    ----------
    weight_function:
        The monotonically decreasing functional ``W`` of Eq. 1.  Defaults
        to CRH's logarithmic weights.
    convergence:
        Stopping policy; defaults to 100 iterations / 1e-6 tolerance.
    normalize_distances:
        If true (default, CRH behaviour), per-claim distances are divided
        by the standard deviation of the task's claims before summing.
    initializer:
        How to produce iteration-0 truths: ``"mean"`` (default),
        ``"median"``, or ``"random"`` (uniform over each task's claim
        range, the paper's "randomly initialize"; requires ``rng``).
    truth_estimator:
        The truth update of Eq. 2: ``"mean"`` (default, the weighted
        average every algorithm in the paper uses) or ``"median"`` (the
        weighted median — a robust variant that resists a *sub-majority*
        of colluding weight; see the ABL-5 bench).
    rng:
        Random generator for the ``"random"`` initializer.
    """

    def __init__(
        self,
        weight_function: WeightFunction = crh_log_weights,
        convergence: ConvergencePolicy = ConvergencePolicy(),
        normalize_distances: bool = True,
        initializer: str = "mean",
        truth_estimator: str = "mean",
        rng: Optional[np.random.Generator] = None,
    ):
        if initializer not in ("mean", "median", "random"):
            raise ValueError(
                f"initializer must be 'mean', 'median' or 'random', got {initializer!r}"
            )
        if truth_estimator not in ("mean", "median"):
            raise ValueError(
                f"truth_estimator must be 'mean' or 'median', got {truth_estimator!r}"
            )
        if initializer == "random" and rng is None:
            raise ValueError("the 'random' initializer requires an rng")
        self._weight_function = weight_function
        self._convergence = convergence
        self._normalize = normalize_distances
        self._initializer = initializer
        self._truth_estimator = truth_estimator
        self._rng = rng

    # ------------------------------------------------------------------

    def discover(self, dataset: SensingDataset) -> TruthDiscoveryResult:
        """Run Algorithm 1 on the dataset and return truths and weights."""
        if len(dataset) == 0:
            raise DataValidationError("cannot run truth discovery on an empty dataset")

        tracer = get_tracer()
        with tracer.span(
            "td.discover", accounts=len(dataset.accounts), tasks=len(dataset.tasks)
        ) as span:
            with tracer.span("engine.compile"):
                matrix = ClaimMatrix.from_dataset(dataset)
            engine_result = run_convergence_loop(
                matrix,
                weight_function=self._weight_function,
                convergence=self._convergence,
                initial_truths=self._initial_truths(matrix),
                normalize=self._normalize,
                truth_estimator=self._truth_estimator,
                event_name="td.iteration",
                metrics_prefix="td",
                span=span,
                error_subject="truth discovery",
            )

        answered = matrix.answered_cols
        truth_map = {
            tid: float(engine_result.truths[j])
            for j, tid in enumerate(matrix.col_labels)
            if answered[j]
        }
        weight_map = {
            account: float(w)
            for account, w in zip(matrix.row_labels, engine_result.weights)
        }
        return TruthDiscoveryResult(
            truths=truth_map,
            weights=weight_map,
            iterations=engine_result.iterations,
            converged=engine_result.converged,
            truth_history=engine_result.history,
        )

    # ------------------------------------------------------------------

    def _initial_truths(self, matrix: ClaimMatrix) -> np.ndarray:
        if self._initializer == "mean":
            return matrix.column_means()
        if self._initializer == "median":
            return matrix.column_medians()
        lows, highs = matrix.column_minmax()
        assert self._rng is not None
        draws = self._rng.uniform(
            np.nan_to_num(lows), np.nan_to_num(np.maximum(highs, lows))
        )
        return np.where(np.isnan(lows), np.nan, draws)
