"""The vectorized claim-matrix engine shared by every truth discovery path.

One compiled sparse structure (:class:`ClaimMatrix`), one set of
segment-sum iteration kernels, and one instrumented convergence loop —
batch truth discovery (Algorithm 1), the Sybil-resistant framework's
group-level iteration (Algorithm 2), the weighted baselines, and the
streaming extension all run on this layer instead of keeping private
dict-of-dicts copies of the weight/truth math.

Layer map:

* :mod:`repro.core.engine.matrix` — :class:`ClaimMatrix` (CSR-style
  index arrays built once from a
  :class:`~repro.core.dataset.SensingDataset`) and
  :func:`compact_by_groups` (the Eq. 3/4 data-grouping step as a row
  compaction);
* :mod:`repro.core.engine.kernels` — Eq. 1 distances, Eq. 2/5 truth
  updates, the weighted-median variant, and the CRH spread normalizer
  as ``np.bincount`` segment-sums;
* :mod:`repro.core.engine.loop` — :func:`run_convergence_loop`
  (the shared, :mod:`repro.obs`-instrumented fixed point) and
  :class:`ConvergencePolicy`.
"""

from repro.core.engine.kernels import (
    column_spreads,
    segment_row_distances,
    segment_weighted_medians,
    segment_weighted_truths,
)
from repro.core.engine.loop import (
    ConvergencePolicy,
    EngineResult,
    WeightFunction,
    initial_truths_eq5,
    run_convergence_loop,
)
from repro.core.engine.matrix import ClaimMatrix, GroupedClaims, compact_by_groups

__all__ = [
    "ClaimMatrix",
    "ConvergencePolicy",
    "EngineResult",
    "GroupedClaims",
    "WeightFunction",
    "column_spreads",
    "compact_by_groups",
    "initial_truths_eq5",
    "run_convergence_loop",
    "segment_row_distances",
    "segment_weighted_medians",
    "segment_weighted_truths",
]
