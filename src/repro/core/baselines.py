"""Baseline aggregation algorithms used as comparators.

The paper compares its framework only against CRH, arguing CRH represents
the whole Algorithm-1 family.  To make that claim checkable — and to give
downstream users non-iterative reference points — this module implements
the classic baselines referenced in the paper's related work:

* :class:`MeanAggregator` / :class:`MedianAggregator` — weightless
  aggregation (every account trusted equally);
* :class:`GTM` — a Gaussian-truth-model style EM iteration that estimates a
  per-source noise variance (after Zhao & Han's GTM); sources with smaller
  estimated variance pull the truth harder;
* :class:`CATD` — a confidence-aware variant (after Li et al., VLDB 2014)
  that inflates the weight uncertainty of sources with few claims using a
  chi-squared upper confidence bound.

All baselines implement the same ``discover(dataset)`` protocol as
:class:`~repro.core.truth_discovery.IterativeTruthDiscovery`, so experiment
harnesses can treat any of them as an opaque truth-discovery engine.

The iterative baselines are presets of
:class:`~repro.core.truth_discovery.IterativeTruthDiscovery`, like CRH:
GTM's EM and CATD's confidence-bound update are both "distance vector
in, weight vector out" maps built per claim matrix by
``_weight_function_for`` — only the functional (and, for GTM, the
distance normalization) differs, so they share CRH's loop, telemetry and
``ConvergencePolicy(strict=True)`` handling.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import stats

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.loop import EngineResult, WeightFunction
from repro.core.engine.matrix import ClaimMatrix
from repro.core.truth_discovery import (
    ConvergencePolicy,
    IterativeTruthDiscovery,
    TruthDiscoveryResult,
    _discovery_result,
)
from repro.errors import DataValidationError


def _unweighted(
    dataset: SensingDataset, statistic: Callable[[ClaimMatrix], np.ndarray]
) -> TruthDiscoveryResult:
    """One pass of a per-task column statistic, every account weighted 1."""
    if len(dataset) == 0:
        raise DataValidationError("cannot aggregate an empty dataset")
    matrix = ClaimMatrix.from_dataset(dataset)
    return _discovery_result(
        matrix,
        EngineResult(
            truths=statistic(matrix),
            weights=np.ones(matrix.n_rows),
            iterations=1,
            converged=True,
            history=(),
        ),
    )


class MeanAggregator:
    """Unweighted mean per task — the naive strawman.

    Every account gets weight 1; the estimate for each task is the
    arithmetic mean of its claims.  Maximally vulnerable to a Sybil
    attacker, who controls the mean in proportion to its account count.
    """

    def discover(self, dataset: SensingDataset) -> TruthDiscoveryResult:
        return _unweighted(dataset, ClaimMatrix.column_means)


class MedianAggregator:
    """Per-task median — robust up to 50% contamination per task.

    The median resists a Sybil attacker until its accounts form a majority
    of a task's claimants, at which point it fails abruptly.  This makes it
    a useful foil for the framework: grouping degrades gracefully, the
    median does not.
    """

    def discover(self, dataset: SensingDataset) -> TruthDiscoveryResult:
        return _unweighted(dataset, ClaimMatrix.column_medians)


class GTM(IterativeTruthDiscovery):
    """Gaussian truth model: EM over per-source noise variances.

    Model: claim ``d_j^i = truth_j + noise_i`` with
    ``noise_i ~ N(0, sigma_i^2)``.  The E-step re-estimates truths as
    precision-weighted means; the M-step re-estimates each source's
    variance from its residuals.  A small inverse-gamma style prior
    (``alpha``, ``beta``) regularizes sources with few claims.  Residuals
    are raw, not spread-normalized: the variance model absorbs scale.

    Parameters
    ----------
    convergence:
        Iteration budget / tolerance on truth movement.
    alpha, beta:
        Variance prior pseudo-counts: the M-step computes
        ``sigma_i^2 = (beta + sse_i) / (alpha + n_i)``.
    """

    _normalize = False
    _name = "gtm"

    def __init__(
        self,
        convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
        alpha: float = 1.0,
        beta: float = 1.0,
    ):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        super().__init__(convergence=convergence)
        self._alpha = alpha
        self._beta = beta

    def _weight_function_for(self, matrix: ClaimMatrix) -> WeightFunction:
        counts = matrix.claim_counts_by_row

        def gtm_precision(sse: np.ndarray) -> np.ndarray:
            # M-step (variance from residuals) folded with the weight the
            # E-step uses, so one call covers both halves of the iteration.
            variances = (self._beta + sse) / (self._alpha + counts)
            return 1.0 / np.maximum(variances, EPS)

        return gtm_precision


class CATD(IterativeTruthDiscovery):
    """Confidence-aware truth discovery for long-tail sources.

    After Li et al. (VLDB 2014): a source with only a handful of claims has
    an unreliable empirical error, so its weight is computed from the upper
    bound of a chi-squared confidence interval on its error variance rather
    than the point estimate:

    ``w_i = chi2.ppf(alpha, n_i) / sse_i``

    where ``n_i`` is the number of claims of source *i* and ``sse_i`` its
    summed squared normalized deviation from the truths.  Small-``n``
    sources get proportionally smaller chi-squared quantiles, damping the
    overconfidence that plain inverse-error weighting gives them.

    Parameters
    ----------
    significance:
        The ``alpha`` quantile of the chi-squared distribution (paper uses
        0.05 — the conservative lower tail).
    convergence:
        Iteration budget / tolerance.
    """

    _name = "catd"

    def __init__(
        self,
        significance: float = 0.05,
        convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    ):
        if not 0 < significance < 1:
            raise ValueError(f"significance must be in (0, 1), got {significance}")
        super().__init__(convergence=convergence)
        self._significance = significance

    def _weight_function_for(self, matrix: ClaimMatrix) -> WeightFunction:
        quantiles = stats.chi2.ppf(
            self._significance, np.maximum(matrix.claim_counts_by_row, 1)
        )

        def catd_weights(sse: np.ndarray) -> np.ndarray:
            return quantiles / np.maximum(sse, EPS)

        return catd_weights
