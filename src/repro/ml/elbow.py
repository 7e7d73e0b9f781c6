"""The elbow method for choosing the number of clusters ``k``.

AG-FP must guess the number of physical devices behind the observed
accounts (Section IV-C): run k-means for ``k = 1..k_max``, record the sum
of squared errors (SSE, k-means inertia) of each fit, and "choose the value
of k at which SSE starts to diminish".

The "start of diminishing" is formalized here with the standard
maximum-distance knee rule (Kodinariya & Makwana's survey, the paper's
reference [8]): normalize the SSE curve to the unit square, draw the chord
from its first to its last point, and pick the ``k`` whose curve point lies
farthest below the chord.  For a monotone convex curve this is exactly the
visual elbow; for degenerate curves (flat, or strictly linear) we fall back
to ``k = 1`` (no evidence of cluster structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataValidationError
from repro.ml.kmeans import MAX_ITERATIONS, TOLERANCE, _best_fits, validated_points
from repro.obs import get_metrics, get_tracer


@dataclass(frozen=True)
class ElbowResult:
    """Outcome of an elbow scan.

    Attributes
    ----------
    k:
        The chosen number of clusters.
    candidate_ks:
        The scanned ``k`` values, ascending.
    sse:
        The SSE (inertia) of the best k-means fit at each candidate.
    """

    k: int
    candidate_ks: Tuple[int, ...]
    sse: Tuple[float, ...]


def sse_curve(
    points: np.ndarray,
    k_max: Optional[int] = None,
    n_init: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> ElbowResult:
    """Fit k-means for every ``k`` in ``1..k_max`` and locate the elbow.

    Parameters
    ----------
    points:
        ``(n, d)`` feature matrix (device fingerprints, in AG-FP).
    k_max:
        Largest ``k`` to scan; defaults to ``n`` (the paper suggests
        scanning up to the number of accounts, every account potentially
        being its own device).
    n_init:
        k-means restarts per candidate.
    rng:
        Shared random generator across all fits.

    Every fit of the scan runs as one batch (see :mod:`repro.ml.kmeans`),
    with the same results and generator state as one ``KMeans(k,
    n_init=n_init, rng=rng).fit(points)`` per candidate in ascending order.
    """
    data = validated_points(points)
    n = len(data)
    if k_max is None:
        k_max = n
    k_max = min(k_max, n)
    if k_max < 1:
        raise DataValidationError(f"k_max must be >= 1, got {k_max}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    generator = rng if rng is not None else np.random.default_rng(0)

    candidates = tuple(range(1, k_max + 1))
    with get_tracer().span(
        "ml.elbow_scan", points=n, k_max=k_max
    ) as span:
        fits = _best_fits(data, candidates, n_init, MAX_ITERATIONS, TOLERANCE, generator)
        sses = [fit.inertia for fit in fits]
        k_star = _knee(candidates, sses)
        span.set("k", k_star)
    metrics = get_metrics()
    metrics.counter("elbow.scans").inc()
    metrics.counter("elbow.candidates").inc(len(candidates))
    return ElbowResult(k=k_star, candidate_ks=candidates, sse=tuple(sses))


def estimate_k_elbow(
    points: np.ndarray,
    k_max: Optional[int] = None,
    n_init: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """The elbow-estimated cluster count (see :func:`sse_curve`)."""
    return sse_curve(points, k_max=k_max, n_init=n_init, rng=rng).k


def _knee(ks: Sequence[int], sses: Sequence[float]) -> int:
    """Maximum-distance-to-chord knee of the (k, SSE) curve."""
    if len(ks) == 1:
        return ks[0]
    xs = np.asarray(ks, dtype=float)
    ys = np.asarray(sses, dtype=float)
    # Normalize both axes so the chord geometry is scale-free.
    x_range = xs[-1] - xs[0]
    y_range = ys[0] - ys[-1]
    if x_range <= 0 or y_range <= 1e-15:
        # SSE is flat: the data shows no cluster structure at any k.
        return ks[0]
    xn = (xs - xs[0]) / x_range
    yn = (ys - ys[-1]) / y_range
    # Chord from (0, 1) to (1, 0); the perpendicular distance below it is
    # proportional to 1 - xn - yn for points under the chord.
    below = 1.0 - xn - yn
    best = int(np.argmax(below))
    if below[best] <= 0:
        # The curve never dips below its chord (concave / linear decay):
        # there is no elbow, so report the smallest k.
        return ks[0]
    return ks[best]
