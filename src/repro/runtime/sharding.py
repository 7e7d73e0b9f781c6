"""Deterministic work-unit decomposition for the shard runtime.

AG-TR's Eqs. 7-8 DTW dissimilarities are scored over the
**upper-triangular pair space** of the accounts: pair ``k`` enumerates
``(i, j)`` with ``i < j`` in lexicographic order, ``n * (n - 1) / 2``
pairs total.

The decomposition is pure index arithmetic: a shard is a half-open
range plus enough metadata to compute its block independently, and the
shard list for a given ``(size, n_shards)`` is a deterministic function
of its arguments.  Merging shard outputs back in shard order therefore
reconstructs exactly the serial result layout no matter how many workers
executed the shards, or in which order they finished — the property the
determinism contract of :mod:`repro.runtime` rests on.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def pair_count(n: int) -> int:
    """Number of unordered pairs over ``n`` items: ``n * (n - 1) / 2``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n * (n - 1) // 2


def pair_index_to_ij(k: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unrank flat pair indexes to ``(i, j)`` coordinates, vectorized.

    Pairs are enumerated lexicographically: ``(0,1), (0,2), …, (0,n-1),
    (1,2), …`` — row ``i`` owns ``n - 1 - i`` consecutive indexes and
    starts at offset ``i * (2n - i - 1) / 2``.  The closed-form inverse
    uses a float square root, then fixes any off-by-one from rounding
    with an exact integer correction, so the mapping is exact for every
    ``k`` in range.
    """
    k = np.asarray(k, dtype=np.int64)
    total = pair_count(n)
    if k.size and (k.min() < 0 or k.max() >= total):
        raise ValueError(f"pair index out of range for n={n}")
    # Solve i(2n - i - 1)/2 <= k for the largest integer i.
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * k)) / 2.0).astype(np.int64)
    # Float sqrt can land one row early/late near row boundaries.
    offset = i * (2 * n - i - 1) // 2
    too_far = offset > k
    i = np.where(too_far, i - 1, i)
    offset = i * (2 * n - i - 1) // 2
    next_offset = (i + 1) * (2 * n - i - 2) // 2
    too_near = k >= next_offset
    i = np.where(too_near, i + 1, i)
    offset = i * (2 * n - i - 1) // 2
    j = k - offset + i + 1
    return i, j


def pair_shards(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Split the pair space of ``n`` items into ``n_shards`` ranges.

    Returns half-open ``(lo, hi)`` pair-index ranges covering
    ``[0, pair_count(n))`` in order.  Ranges are balanced to within one
    pair; when there are more shards than pairs the trailing shards are
    empty (``lo == hi``) — callers must tolerate empty work units.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    total = pair_count(n)
    bounds = np.linspace(0, total, n_shards + 1).astype(np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def default_shard_count(n_units: int, workers: int, min_per_shard: int = 1) -> int:
    """How many shards to cut ``n_units`` of work into for ``workers``.

    Serial execution gets one shard (no slicing overhead); parallel
    execution over-decomposes by 4x the worker count so a slow shard
    cannot straggle the whole stage, capped so no shard drops below
    ``min_per_shard`` units.
    """
    if workers <= 1:
        return 1
    if n_units <= 0:
        return 1
    shards = 4 * workers
    if min_per_shard > 1:
        shards = min(shards, max(1, n_units // min_per_shard))
    return max(1, min(shards, n_units))
