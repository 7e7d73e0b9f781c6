"""k-means clustering (Lloyd's algorithm with k-means++ seeding).

The paper groups device fingerprints with k-means (MacQueen) and notes its
``O(nkdi)`` complexity (Section IV-C, AG-FP).  This implementation:

* seeds with **k-means++** for robustness (plain random seeding makes the
  elbow curve noisy, which would destabilize AG-FP's k estimate);
* runs Lloyd iterations to a movement tolerance or an iteration cap;
* restarts ``n_init`` times and keeps the lowest-inertia run;
* handles empty clusters by re-seeding them on the point currently
  farthest from its centroid (a standard repair that keeps exactly ``k``
  clusters alive, matching the "k = number of devices" semantics).

Every fit runs through one batched routine, :func:`_best_fits`: an elbow
scan (every candidate ``k`` times ``n_init`` restarts) and a single
:meth:`KMeans.fit` alike.  AG-FP's fits are on a few dozen points, where
numpy's per-call overhead costs more than the arithmetic, so each seeding
step and each Lloyd step is one array operation over all the fits still
running.  The results are the bits a one-restart-at-a-time loop gives,
generator state included: seeding reads only the data and the generator,
and Lloyd steps draw nothing, so every seeding's random numbers are drawn
first, in that loop's order.

All randomness flows through an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import MAX_ABS_VALUE, DataValidationError
from repro.obs import get_metrics

#: Lloyd iteration cap and centroid-movement tolerance (``KMeans`` defaults,
#: also used by every fit of :func:`repro.ml.elbow.sse_curve`).
MAX_ITERATIONS = 300
TOLERANCE = 1e-8

#: Largest ``fits x points x clusters x dims`` distance temporary one batch of
#: Lloyd steps may allocate (float64 elements, 512 KiB).  The fits of a scan
#: are split into batches under it, so memory stays flat as ``n`` grows.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit.

    Attributes
    ----------
    labels:
        Cluster index per input row.
    centroids:
        ``(k, d)`` array of cluster centers.
    inertia:
        Sum of squared distances of points to their assigned centroid —
        the SSE the elbow method scans.
    iterations:
        Lloyd iterations of the winning restart.
    converged:
        Whether centroid movement dropped below tolerance.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centroids)


class KMeans:
    """Lloyd's k-means with k-means++ initialization.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k`` (the number of distinct devices, in
        AG-FP's usage).
    n_init:
        Independent restarts; the lowest-inertia run wins.
    max_iterations:
        Lloyd iteration cap per restart.
    tolerance:
        Converged when no centroid moves farther than this (Euclidean).
    rng:
        Random generator (seeding, restarts).  Defaults to a fixed-seed
        generator so results are reproducible unless a caller opts into
        its own randomness.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 8,
        max_iterations: int = MAX_ITERATIONS,
        tolerance: float = TOLERANCE,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self._k = n_clusters
        self._n_init = n_init
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` (an ``(n, d)`` array) into ``k`` groups."""
        data = validated_points(points)
        if self._k > len(data):
            raise DataValidationError(
                f"n_clusters={self._k} exceeds the number of points ({len(data)})"
            )
        (best,) = _best_fits(
            data, (self._k,), self._n_init, self._max_iterations, self._tolerance, self._rng
        )
        return best


def validated_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float ``(n, d)`` array with ``n >= 1``, every
    coordinate finite and at most ``MAX_ABS_VALUE`` in magnitude."""
    data = np.asarray(points, dtype=float)
    if data.ndim != 2:
        raise DataValidationError(f"points must be 2-D, got shape {data.shape}")
    if len(data) == 0:
        raise DataValidationError("cannot cluster an empty point set")
    if not (np.abs(data) <= MAX_ABS_VALUE).all():
        raise DataValidationError(
            f"points must be finite and at most {MAX_ABS_VALUE:g} in magnitude"
        )
    return data


def _best_fits(
    data: np.ndarray,
    ks: Sequence[int],
    n_init: int,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
) -> List[KMeansResult]:
    """The lowest-inertia of ``n_init`` restarts for every ``k`` of ``ks``.

    ``ks`` is ascending and at most ``len(data)``.  The fits are ordered
    ``k`` ascending, then restart, which is the order their seedings draw
    from ``rng``; the first restart wins a tie.
    """
    fit_ks = np.repeat(np.asarray(ks, dtype=np.intp), n_init)
    seeds = _seed_every_fit(data, fit_ks, rng)
    labels = np.empty((len(fit_ks), len(data)), dtype=np.intp)
    inertia = np.empty(len(fit_ks))
    iterations = np.empty(len(fit_ks), dtype=np.intp)
    converged = np.empty(len(fit_ks), dtype=bool)
    centroids: List[np.ndarray] = []
    for batch in _batches(fit_ks * data.size):
        fitted = _lloyd(
            data, data[seeds[batch, : fit_ks[batch.stop - 1]]], fit_ks[batch],
            max_iterations, tolerance,
        )
        labels[batch], inertia[batch], iterations[batch], converged[batch] = fitted[1:]
        centroids.extend(fitted[0])
    winners = inertia.reshape(len(ks), n_init).argmin(axis=1) + n_init * np.arange(len(ks))
    best = [
        KMeansResult(
            labels=labels[f].copy(),
            centroids=centroids[f][: fit_ks[f]].copy(),
            inertia=float(inertia[f]),
            iterations=int(iterations[f]),
            converged=bool(converged[f]),
        )
        for f in winners.tolist()
    ]
    metrics = get_metrics()
    metrics.counter("kmeans.fits").inc(len(ks))
    metrics.counter("kmeans.restarts").inc(n_init * len(ks))
    metrics.counter("kmeans.lloyd_iterations").inc(sum(fit.iterations for fit in best))
    return best


def _batches(sizes: np.ndarray) -> Iterator[slice]:
    """Consecutive runs of fits, each run's ``len(run) * largest size``
    within ``_BATCH_ELEMENTS`` (or one fit, if that alone exceeds it).

    ``sizes`` is ascending: per fit, the elements of its padded temporary.
    """
    start = 0
    for stop, size in enumerate(sizes.tolist(), start=1):
        if stop - 1 > start and (stop - start) * size > _BATCH_ELEMENTS:
            yield slice(start, stop - 1)
            start = stop - 1
    yield slice(start, len(sizes))


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------


def _seed_every_fit(
    data: np.ndarray, fit_ks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding of every fit: a ``(fits, max k)`` table of row indices.

    Restart by restart, the seeding draws ``integers(n)`` for the first
    centroid and then one uniform per further centroid (the
    ``Generator.choice`` of the D^2 distribution), until every point
    coincides with a chosen centroid; from then on it draws ``integers(n)``
    per centroid.  Where that happens depends on the earlier choices, so
    the draws are made on a guess (``plan``: each fit's first coinciding
    centroid, ``k`` for never) and the seedings checked against it.  On a
    miss the generator is rewound and the draws made again on the observed
    indices; each round settles at least one more centroid of the first
    fit that missed, so the rounds end.  Data with ``D`` distinct points
    settles in two: every fit with ``k > D`` coincides at centroid ``D``.
    """
    plan = fit_ks.copy()
    state = rng.bit_generator.state
    while True:
        first, uniforms, forced = _draws(len(data), fit_ks, plan, rng)
        seeds = np.zeros((len(fit_ks), fit_ks[-1]), dtype=np.intp)
        observed = fit_ks.copy()
        for batch in _batches(np.full(len(fit_ks), data.size)):
            seeded, observed[batch] = _seed_batch(
                data, fit_ks[batch], plan[batch], first[batch], uniforms[batch], forced[batch]
            )
            seeds[batch, : seeded.shape[1]] = seeded
        if (observed == plan).all():
            return seeds
        plan = observed
        rng.bit_generator.state = state


def _draws(n: int, fit_ks: np.ndarray, plan: np.ndarray, rng: np.random.Generator):
    """Every seeding's random numbers, in the one-restart-at-a-time order."""
    fits, k_max = len(fit_ks), int(fit_ks[-1])
    first = np.empty(fits, dtype=np.intp)
    uniforms = np.zeros((fits, k_max))
    forced = np.zeros((fits, k_max), dtype=np.intp)
    for f, (k, coincide) in enumerate(zip(fit_ks.tolist(), plan.tolist())):
        first[f] = rng.integers(n)
        if coincide > 1:
            uniforms[f, 1:coincide] = rng.random(coincide - 1)
        for idx in range(coincide, k):
            forced[f, idx] = rng.integers(n)
    return first, uniforms, forced


def _seed_batch(data, fit_ks, plan, first, uniforms, forced):
    """D^2 seeding of one batch, one array step per centroid index.

    Returns the seeds and, per fit, the first centroid index at which
    every point coincided with a chosen centroid (``k`` if none).
    """
    seeds = np.zeros((len(fit_ks), fit_ks[-1]), dtype=np.intp)
    seeds[:, 0] = first
    observed = fit_ks.copy()
    closest = _squared_distances(data, data[first])
    for idx in range(1, int(fit_ks[-1])):
        # Fits are in ascending k, so the ones still seeding are a suffix.
        lo = int(np.searchsorted(fit_ks, idx, side="right"))
        near = closest[lo:]
        total = near.sum(axis=1)
        coincide = total <= 0
        observed[lo:][coincide & (observed[lo:] == fit_ks[lo:])] = idx
        chosen = forced[lo:, idx].copy()
        sampled = np.flatnonzero(~coincide & (idx < plan[lo:]))
        if sampled.size:
            # Generator.choice(n, p): the first index whose normalized
            # cumulative probability exceeds the uniform.
            cdf = (near[sampled] / total[sampled, np.newaxis]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            chosen[sampled] = (cdf <= uniforms[lo + sampled, idx, np.newaxis]).sum(axis=1)
        seeds[lo:, idx] = chosen
        np.minimum(near, _squared_distances(data, data[chosen]), out=near)
    return seeds, observed


def _squared_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(len(centers), n)`` squared distances from every point to each center."""
    return ((data[np.newaxis, :, :] - centers[:, np.newaxis, :]) ** 2).sum(axis=2)


# ----------------------------------------------------------------------
# Lloyd iterations
# ----------------------------------------------------------------------


def _lloyd(data, centroids, fit_ks, max_iterations, tolerance):
    """Lloyd iterations of one batch of fits from their seeded centroids.

    ``centroids`` is ``(fits, K, d)`` with ``K`` the batch's largest ``k``;
    the slots of a fit at or past its own ``k`` are padding, never
    assigned and never repaired.  A fit stops at its own convergence and
    drops out of the later steps.
    """
    slots = np.arange(centroids.shape[1]) < fit_ks[:, np.newaxis]
    iterations = np.zeros(len(fit_ks), dtype=np.intp)
    converged = np.zeros(len(fit_ks), dtype=bool)
    running = np.arange(len(fit_ks))
    for step in range(1, max_iterations + 1):
        current, live = centroids[running], slots[running]
        moved = _update_centroids(data, _assign(data, current, live), current, live)
        movement = np.sqrt(((moved - current) ** 2).sum(axis=2)).max(axis=1)
        centroids[running] = moved
        iterations[running] = step
        done = movement <= tolerance
        converged[running[done]] = True
        running = running[~done]
        if running.size == 0:
            break
    labels = _assign(data, centroids, slots)
    fitted = np.take_along_axis(centroids, labels[:, :, np.newaxis], axis=1)
    inertia = ((data - fitted) ** 2).reshape(len(fit_ks), -1).sum(axis=1)
    return centroids, labels, inertia, iterations, converged


def _assign(data: np.ndarray, centroids: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment per fit (ties go to the lowest index)."""
    diff = data[np.newaxis, :, np.newaxis, :] - centroids[:, np.newaxis, :, :]
    distances = np.square(diff, out=diff).sum(axis=3)
    np.copyto(distances, np.inf, where=~slots[:, np.newaxis, :])
    return distances.argmin(axis=2)


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, previous: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Mean of each cluster of each fit; empty clusters re-seed on the
    fit's worst-fit point.

    The sums add each cluster's members in row order, starting from 0.0:
    what ``mean(axis=0)`` of the boolean-indexed copy ``data[labels == c]``
    does when ``d > 1`` (a one-member cluster takes its row plus 0.0,
    turning -0.0 into 0.0).  For ``d == 1`` that ``mean`` sums the column
    pairwise once a cluster has 8 or more members, so those clusters take
    the ``mean`` of their contiguous member slice instead.
    """
    fits, k, d = previous.shape
    cluster = (labels + k * np.arange(fits)[:, np.newaxis]).ravel()
    counts = np.bincount(cluster, minlength=fits * k)
    rows = np.broadcast_to(data, (fits,) + data.shape).reshape(-1, d)
    sums = np.zeros((fits * k, d))
    np.add.at(sums, cluster, rows)
    centroids = previous.reshape(fits * k, d).copy()
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, np.newaxis]
    if d == 1:
        pairwise = np.flatnonzero(counts >= 8)
        if pairwise.size:
            grouped = rows[np.argsort(cluster, kind="stable")]
            ends = np.cumsum(counts)
            for c in pairwise.tolist():
                centroids[c] = grouped[ends[c] - counts[c] : ends[c]].mean(axis=0)
    centroids = centroids.reshape(fits, k, d)
    # Repair empty clusters after the means are in place so "farthest from
    # its centroid" is measured against the fresh geometry.  Labels never
    # name an empty cluster, so every repair of a fit sees the same
    # residuals and picks the same (first) worst-fit point.
    empty = (counts.reshape(fits, k) == 0) & slots
    if empty.any():
        repaired = np.flatnonzero(empty.any(axis=1))
        fitted = np.take_along_axis(
            centroids[repaired], labels[repaired][:, :, np.newaxis], axis=1
        )
        worst = ((data - fitted) ** 2).sum(axis=2).argmax(axis=1)
        fit, slot = np.nonzero(empty[repaired])
        centroids[repaired[fit], slot] = data[worst[fit]]
    return centroids
