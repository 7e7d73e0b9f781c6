"""Edge cases of the engine's segment-sum kernels."""

import numpy as np

from repro.core.engine import segment_weighted_truths


def test_subnormal_weight_mass_keeps_mean_in_claim_range():
    # 1.25 * 5e-324 rounds to 5e-324, so the unscaled Eq. 2 mean of a
    # single claim would read 1.0 instead of the claim itself.
    values = np.array([1.25, 1.5, -3.0, 7.0])
    col_idx = np.array([0, 1, 1, 2])
    weights = np.array([5e-324, 5e-324, 1e-320, 0.5])
    truths = segment_weighted_truths(values, col_idx, weights, 4, np.full(4, 9.0))
    assert truths[0] == 1.25
    assert -3.0 <= truths[1] <= 1.5
    assert truths[2] == 7.0
    assert truths[3] == 9.0
