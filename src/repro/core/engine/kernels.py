"""Vectorized iteration kernels over the compiled claim matrix.

These are the two halves of every weight/truth iteration in the paper,
expressed as segment-sums over the flat claim arrays:

* :func:`segment_weighted_truths` — Eq. 2 / Eq. 5: per-task weighted
  average of the claims, with a previous-estimate fallback for tasks
  whose claimants carry no weight;
* :func:`segment_row_distances` — the distance half of Eq. 1: each
  source's summed (spread-normalized) squared deviation from the current
  truths, ready for a ``WeightFunction``;
* :func:`segment_weighted_medians` — the robust Eq. 2 variant (weighted
  median per task);
* :func:`column_spreads` — the CRH per-task normalizer.

The mean/distance/spread kernels are O(claims) with no Python-level
loops over sources or tasks; the median kernel sorts
(O(claims · log claims)) and scans its columns one at a time — the
cumulative weight sums must restart per column to stay exact (see the
comment in :func:`segment_weighted_medians`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._nputil import EPS

#: Smallest positive normal float64; weight mass below it is subnormal.
_TINY = np.finfo(float).tiny


def segment_weighted_truths(
    values: np.ndarray,
    col_idx: np.ndarray,
    claim_weights: np.ndarray,
    n_cols: int,
    previous: np.ndarray,
) -> np.ndarray:
    """Eq. 2 / Eq. 5: per-column weighted mean of the claims.

    Parameters
    ----------
    values, col_idx:
        The claim arrays.
    claim_weights:
        Weight per **claim** — gather row weights through ``row_idx``
        for Eq. 2, or pass the per-cell Eq. 4 weights directly for Eq. 5.
    n_cols:
        Number of columns.
    previous:
        Fallback estimate per column: columns whose claims carry zero
        total weight (or no claims at all) keep this value — the claims
        gave no usable signal this round.
    """
    mass = np.bincount(col_idx, weights=claim_weights, minlength=n_cols)
    try:
        with np.errstate(invalid="ignore", divide="ignore", under="raise"):
            weighted = np.bincount(
                col_idx, weights=claim_weights * values, minlength=n_cols
            )
            estimates = weighted / mass
    except FloatingPointError:
        estimates = _means_after_underflow(values, col_idx, claim_weights, mass)
    return np.where(mass > 0, estimates, previous)


def _means_after_underflow(values, col_idx, claim_weights, mass):
    """Per-column weighted means after an underflow in the plain quotient.

    A rounded subnormal ``weight * value`` product can put the mean of a
    column whose whole weight mass is subnormal outside its claims' range.
    Those columns are recomputed with their weights scaled by a power of
    two, which is exact and leaves the mean unchanged; every other column
    gets exactly the plain quotient.
    """
    scale = np.where(mass < _TINY, 2.0**1000, 1.0)[col_idx]
    scaled = claim_weights * scale
    n_cols = len(mass)
    with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
        return np.bincount(
            col_idx, weights=scaled * values, minlength=n_cols
        ) / np.bincount(col_idx, weights=scaled, minlength=n_cols)


def segment_row_distances(
    values: np.ndarray,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    truths: np.ndarray,
    n_rows: int,
    spreads: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 1's distance: per-row sum of squared deviations from the truths.

    With ``spreads`` given, each claim's squared deviation is divided by
    its column's claim spread first (CRH normalization).  Rows without
    claims get distance 0 — the weight functional then assigns them the
    maximal weight, exactly as the dense implementation did.
    """
    deviation = values - truths[col_idx]
    squared = deviation * deviation
    if spreads is not None:
        squared = squared / spreads[col_idx]
    return np.bincount(row_idx, weights=squared, minlength=n_rows)


def segment_weighted_medians(
    values: np.ndarray,
    col_idx: np.ndarray,
    claim_weights: np.ndarray,
    n_cols: int,
    previous: np.ndarray,
) -> np.ndarray:
    """Robust Eq. 2 variant: per-column weighted median of the claims.

    The weighted median of a column is the smallest claim value with at
    least half the column's weight at or below it — the minimizer of the
    weighted *absolute* deviation.  Columns with zero total weight (or
    no claims) keep ``previous``.  Semantics match
    :func:`repro.core.truth_discovery.weighted_median` applied per
    column, including stable tie-breaking on equal values.
    """
    totals = np.bincount(col_idx, weights=claim_weights, minlength=n_cols)
    counts = np.bincount(col_idx, minlength=n_cols)

    # Sort claims by (column, value); stable, so ties keep claim order.
    order = np.lexsort((values, col_idx))
    sorted_values = values[order]
    sorted_weights = claim_weights[order]
    indptr = np.concatenate(([0], np.cumsum(counts)))

    # Per-column scan.  A fully vectorized variant (global cumsum minus
    # each column's base mass) silently loses weights smaller than one
    # ulp of the running global total — e.g. a 1e-251 weight after a
    # 1.0 weight — and then disagrees with the scalar weighted_median.
    # The cumulative sum must restart per column to stay exact.
    estimates = previous.copy()
    for c in np.flatnonzero((counts > 0) & (totals > 0)):
        lo, hi = int(indptr[c]), int(indptr[c + 1])
        weights_c = sorted_weights[lo:hi]
        cumulative = np.cumsum(weights_c)
        index = int(np.searchsorted(cumulative, weights_c.sum() / 2.0))
        estimates[c] = sorted_values[lo + min(index, hi - lo - 1)]
    return estimates


def column_spreads(
    values: np.ndarray, col_idx: np.ndarray, n_cols: int
) -> np.ndarray:
    """Per-column claim standard deviation with a floor of 1.0.

    Two-pass (mean, then mean squared deviation) like ``np.nanstd`` on
    the dense matrix; columns whose spread would be NaN or below the
    numerical floor pass distances through unscaled (spread 1.0).
    """
    counts = np.bincount(col_idx, minlength=n_cols)
    sums = np.bincount(col_idx, weights=values, minlength=n_cols)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    deviation = values - means[col_idx]
    sq = np.bincount(col_idx, weights=deviation * deviation, minlength=n_cols)
    with np.errstate(invalid="ignore", divide="ignore"):
        spreads = np.sqrt(sq / counts)
    return np.where((counts == 0) | ~(spreads >= EPS), 1.0, spreads)
