"""``repro.runtime`` — the sharded runtime for AG-TR grouping.

AG-TR's Eqs. 7-8 score every account pair with DTW.  Each shard of the
pair space is scored with whole-array numpy (vectorized lower bounds,
one batched DTW kernel); on 600 accounts that takes about 0.1 s at
``workers=1``, and a two-worker pool, start-up included, is slower
(measured on a 2-core machine).  Everything else runs as whole-array
numpy in the calling process.  This package makes the AG-TR pair space
*shardable* without making it *nondeterministic*:

* :mod:`repro.runtime.sharding` — pure index arithmetic that chunks the
  upper-triangular pair space into balanced work units with an exact,
  vectorized ``k -> (i, j)`` unrank;
* :mod:`repro.runtime.executor` — :class:`ShardExecutor`, which runs
  shard functions inline (``workers=1``, the default) or on a lazy
  persistent process pool, always returning results in shard order and
  falling back to inline execution where pools are unavailable;
* :mod:`repro.runtime.pairwise` — the AG-TR shard worker: Eq. 8 DTW
  blocks that reuse the :mod:`repro.timeseries.bounds` lower bounds per
  shard and ship their DTW telemetry back to the parent.

**Determinism contract.** AG-TR produces byte-identical matrices,
groupings and ``dtw.*`` telemetry for ``workers=1`` and ``workers=K``:
shards partition the pair space, each pair is computed with the serial
arithmetic, and merges happen in shard order.  Lower-bound pruning only
ever replaces scores that provably cannot form a threshold edge.
``tests/runtime/`` pins the contract.

Quickstart::

    from repro.runtime import runtime_session

    with runtime_session(workers=2):
        grouping = TrajectoryGrouper().group(dataset)   # sharded AG-TR

or, from the command line, ``python -m repro.cli fig6 --workers 2``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import get_metrics
from repro.runtime.executor import (
    ShardExecutor,
    get_runtime,
    set_runtime,
)
from repro.runtime.pairwise import (
    PairwiseStats,
    sharded_trajectory_dissimilarity,
)
from repro.runtime.sharding import (
    default_shard_count,
    pair_count,
    pair_index_to_ij,
    pair_shards,
)

__all__ = [
    "PairwiseStats",
    "ShardExecutor",
    "default_shard_count",
    "get_runtime",
    "pair_count",
    "pair_index_to_ij",
    "pair_shards",
    "runtime_session",
    "set_runtime",
    "sharded_trajectory_dissimilarity",
]


@contextmanager
def runtime_session(workers: int = 1) -> Iterator[ShardExecutor]:
    """Install a :class:`ShardExecutor` for the duration of a ``with`` block.

    The previous global runtime is restored (and this session's pool
    shut down) on exit, even on error, so sessions nest safely.  The
    ``runtime.workers`` gauge is set on entry and kept after exit, so a
    summary printed after the session reports the workers the run used.

    Parameters
    ----------
    workers:
        Parallel worker count; ``1`` gives the inline serial executor.
    """
    executor = ShardExecutor(workers=workers)
    previous = set_runtime(executor)
    get_metrics().gauge("runtime.workers").set(workers)
    try:
        yield executor
    finally:
        set_runtime(previous)
        executor.close()
