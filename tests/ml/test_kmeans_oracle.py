"""The batched k-means equals the one-restart-at-a-time oracle bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import FingerprintGrouper
from repro.ml.elbow import _knee, sse_curve
from repro.ml.kmeans import KMeans, _update_centroids
from repro.obs import get_metrics
from repro.simulation.scenario import PaperScenarioConfig, build_scenario
from tests.ml.kmeans_oracle import oracle_fit, oracle_sse, oracle_update_centroids

# Magnitudes from 1e-6 to 1e6 and exact (signed) zeros, so rounding,
# cancellation and the sign of a zero mean all show.
scales = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])


@st.composite
def partitions(draw):
    """Points, then per fit labels and previous centroids with empty,
    one-member and large clusters (``d = 1`` columns of 8+ members use
    pairwise sums).  The fits share the points, as the fits of a scan do."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 1, 2, 3, 8]))
    n = draw(st.integers(1, 80))
    data = rng.normal(size=(n, d)) * draw(scales)
    if draw(st.booleans()):
        data[rng.random((n, d)) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    fits = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 12))
        used = draw(st.integers(1, k))
        # Skewed draws make some clusters large and leave others empty.
        weights = rng.random(used) ** 3 + 1e-3
        labels = rng.choice(used, size=n, p=weights / weights.sum())
        fits.append((rng.permutation(k)[labels], rng.normal(size=(k, d))))
    return data, fits


@given(partitions(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_update_equals_the_per_cluster_oracle(case, padding):
    """One batched update over several fits, each padded to the batch's
    widest ``k`` plus ``padding`` slots, equals the oracle fit by fit and
    leaves the padding alone."""
    data, fits = case
    width = max(len(previous) for _, previous in fits) + padding
    stacked = np.full((len(fits), width, data.shape[1]), 7.0)
    slots = np.zeros((len(fits), width), dtype=bool)
    for f, (_, previous) in enumerate(fits):
        stacked[f, : len(previous)] = previous
        slots[f, : len(previous)] = True
    labels = np.stack([labels for labels, _ in fits])
    got = _update_centroids(data, labels, stacked, slots)
    for f, (fit_labels, previous) in enumerate(fits):
        want = oracle_update_centroids(data, fit_labels, previous)
        assert got[f, : len(previous)].tobytes() == want.tobytes()
        assert (got[f, len(previous) :] == 7.0).all()


def test_partitions_cover_the_degenerate_clusters():
    """The strategy reaches every case the batched update special-cases."""
    seen = set()

    @given(partitions())
    @settings(max_examples=300, deadline=None, database=None)
    def collect(case):
        data, fits = case
        for labels, previous in fits:
            counts = np.bincount(labels, minlength=len(previous))
            seen.update(
                name
                for name, hit in (
                    ("empty", (counts == 0).any()),
                    ("single", (counts == 1).any()),
                    ("d1_pairwise", data.shape[1] == 1 and (counts >= 8).any()),
                    ("several_fits", len(fits) > 1),
                )
                if hit
            )

    collect()
    assert seen == {"empty", "single", "d1_pairwise", "several_fits"}


@st.composite
def scans(draw):
    """Point sets, a scan cap and a restart count for ``sse_curve``.

    Blobs in 1, 2 or 8 dimensions; some sets repeat a few distinct points
    (so large ``k`` seeds past the point where every point coincides with
    a centroid), some signed zeros, and ``k_max`` below ``n``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    d = draw(st.sampled_from([1, 2, 8]))
    blobs = rng.normal(size=(draw(st.integers(1, 4)), d)) * 5
    points = blobs[rng.integers(len(blobs), size=n)]
    if not draw(st.booleans()):
        points = points + rng.normal(size=(n, d))
    points = points * draw(scales)
    if draw(st.booleans()):
        points[rng.random((n, d)) < 0.2] = -0.0
    k_max = draw(st.one_of(st.none(), st.integers(1, n)))
    n_init = draw(st.sampled_from([1, 2, 8]))
    return points, k_max, n_init


def _counters():
    metrics = get_metrics()
    return [
        metrics.counter(name).value
        for name in ("kmeans.fits", "kmeans.restarts", "kmeans.lloyd_iterations")
    ]


def _assert_scan_then_fit_equal_the_oracle(points, k_max, n_init, seed):
    """``sse_curve`` then a final ``KMeans.fit`` at its ``k`` on one generator,
    against the oracle on a twin generator."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    before = _counters()
    curve = sse_curve(points, k_max=k_max, n_init=n_init, rng=rng)
    fit = KMeans(curve.k, n_init=n_init, rng=rng).fit(points)
    after = _counters()

    oracle_curve = oracle_sse(points, len(curve.candidate_ks), n_init, twin)
    sses = tuple(f.inertia for f in oracle_curve)
    assert curve.sse == sses
    assert curve.k == _knee(curve.candidate_ks, sses)
    want = oracle_fit(points, curve.k, n_init, twin)
    assert fit.labels.tobytes() == want.labels.tobytes()
    assert fit.labels.dtype == want.labels.dtype
    assert fit.centroids.tobytes() == want.centroids.tobytes()
    assert fit.inertia == want.inertia
    assert fit.iterations == want.iterations
    assert fit.converged == want.converged
    assert rng.bit_generator.state == twin.bit_generator.state
    fits = len(curve.candidate_ks) + 1
    iterations = sum(f.iterations for f in oracle_curve) + want.iterations
    assert [b - a for a, b in zip(before, after)] == [fits, fits * n_init, iterations]


@given(scans(), st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_sse_curve_then_fit_equals_the_oracle(scan, seed):
    points, k_max, n_init = scan
    _assert_scan_then_fit_equal_the_oracle(points, k_max, n_init, seed)


def test_scans_reach_every_branch():
    """The strategy reaches each case the batched routine must keep exact."""
    seen = set()

    @given(scans())
    @settings(max_examples=300, deadline=None, database=None)
    def collect(scan):
        points, k_max, n_init = scan
        n, d = points.shape
        k_top = n if k_max is None else k_max
        distinct = len(np.unique(points, axis=0))
        fit = oracle_fit(points, k_top, 1, np.random.default_rng(0))
        seen.update(
            name
            for name, hit in (
                (f"d{d}", True),
                (f"n_init{n_init}", n_init in (1, 8)),
                ("coincident_seeding", k_top > distinct),
                ("k_max_below_n", k_top < n),
                ("d1_pairwise", d == 1 and (np.bincount(fit.labels) >= 8).any()),
                ("tiny", np.abs(points).max() < 1e-3),
                ("huge", np.abs(points).max() > 1e5),
            )
            if hit
        )

    collect()
    assert seen >= {
        "d1", "d2", "d8", "n_init1", "n_init8", "coincident_seeding",
        "k_max_below_n", "d1_pairwise", "tiny", "huge",
    }


@pytest.mark.parametrize(
    "points, k_max",
    [
        (np.zeros((10, 2)), None),  # every k > 1 seeds on coincident points
        (np.repeat([[0.0], [1.0], [5.0]], [9, 1, 2], axis=0), None),  # d == 1, 9 members
        (np.array([[1.0, 2.0]] * 4 + [[3.0, -0.0]] * 3), 6),  # two distinct, k up to 6
    ],
)
def test_coincident_and_pairwise_cases_equal_the_oracle(points, k_max):
    for seed in range(5):
        _assert_scan_then_fit_equal_the_oracle(points, k_max, 8, seed)


#: Every ``(legitimate, Sybil)`` activeness cell of the paper-grid workload.
CELLS = [(p, s) for p in range(3) for s in range(5)]
LEGIT = (0.2, 0.5, 1.0)
SYBIL = (0.2, 0.4, 0.6, 0.8, 1.0)


def _campaign_features(seed, p, s):
    config = PaperScenarioConfig(legit_activeness=LEGIT[p], sybil_activeness=SYBIL[s])
    scenario = build_scenario(config, np.random.default_rng([seed, p, s]))
    return FingerprintGrouper().project_features(scenario.fingerprints)


@pytest.mark.parametrize("seed", range(31, 41))
def test_paper_grid_campaigns_equal_the_oracle(seed):
    """AG-FP's clustering of paper-grid campaigns (the benchmark's seeds
    31-40, three of the 15 grid cells per seed, all 15 cells twice over)."""
    for p, s in CELLS[(seed * 3) % 15 :][:3]:
        points = _campaign_features(seed, p, s)
        _assert_scan_then_fit_equal_the_oracle(points, None, 8, 0)
