"""PERF-1: scaling micro-benchmarks of the computational substrates.

These are conventional timing benchmarks (multiple rounds) of the pieces
whose cost the paper discusses: AG-FP's Table II feature pass,
k-means/elbow (AG-FP's ``O(nkdi)``), the quadratic DTW dynamic program,
CRH iteration, streaming replay, and the end-to-end framework on a
population an order of magnitude beyond the paper's 18 accounts.
"""

import numpy as np
import pytest

from repro.core.crh import CRH
from repro.core.dataset import SensingDataset
from repro.core.framework import SybilResistantTruthDiscovery
from repro.core.grouping import TrajectoryGrouper
from repro.ml.kmeans import KMeans
from repro.ml.elbow import estimate_k_elbow
from repro.timeseries.dtw import dtw_distance


@pytest.fixture(scope="module")
def big_dataset():
    """200 accounts x 50 tasks, 60% answer density."""
    rng = np.random.default_rng(0)
    values = rng.normal(-75.0, 5.0, size=(200, 50))
    mask = rng.uniform(size=values.shape) < 0.4
    values[mask] = np.nan
    # Ensure every task keeps at least one claim.
    values[0, :] = rng.normal(-75.0, 5.0, size=50)
    return SensingDataset.from_matrix(values)


def test_bench_dtw_unconstrained(benchmark):
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=200), rng.normal(size=200)
    benchmark(dtw_distance, a, b)


def test_bench_feature_matrix(benchmark):
    """AG-FP's feature pass on the 18 captures of one paper-grid cell."""
    from repro.features.extractor import FeatureExtractor
    from repro.simulation.scenario import PaperScenarioConfig, build_scenario

    scenario = build_scenario(
        PaperScenarioConfig(legit_activeness=0.5, sybil_activeness=0.6),
        np.random.default_rng([31, 1, 2]),
    )
    captures = [capture.streams for capture in scenario.fingerprints]
    assert len(captures) == 18
    benchmark(lambda: FeatureExtractor().fit_transform(captures))


def test_bench_kmeans_200x20(benchmark):
    rng = np.random.default_rng(2)
    points = rng.normal(size=(200, 20))
    benchmark(
        lambda: KMeans(n_clusters=8, rng=np.random.default_rng(0)).fit(points)
    )


def test_bench_elbow_scan(benchmark):
    rng = np.random.default_rng(3)
    points = np.vstack(
        [rng.normal(center, 0.2, size=(10, 8)) for center in range(5)]
    )
    benchmark(
        lambda: estimate_k_elbow(
            points, k_max=15, rng=np.random.default_rng(0)
        )
    )


def test_bench_crh_200_accounts(benchmark, big_dataset):
    benchmark(lambda: CRH().discover(big_dataset))


def test_bench_framework_200_accounts(benchmark, big_dataset):
    from repro.core.types import Grouping

    grouping = Grouping.singletons(big_dataset.accounts)
    framework = SybilResistantTruthDiscovery()
    benchmark(lambda: framework.discover(big_dataset, grouping=grouping))


def test_bench_ag_tr_on_paper_population(benchmark, ):
    from repro.simulation.scenario import PaperScenarioConfig, build_scenario

    scenario = build_scenario(
        PaperScenarioConfig(), np.random.default_rng(5)
    )
    benchmark(lambda: TrajectoryGrouper().group(scenario.dataset))


def test_bench_streaming_engine(benchmark):
    """One 200-observation batch through the streaming engine."""
    from repro.core.streaming import StreamingTruthDiscovery
    from repro.core.types import Observation

    rng = np.random.default_rng(7)
    batch = [
        Observation(f"a{k % 40}", f"T{k % 20}", float(rng.normal(-75, 3)), float(k))
        for k in range(200)
    ]

    def run():
        engine = StreamingTruthDiscovery(decay=0.95)
        for _ in range(5):
            engine.observe(batch)
        return engine.truths

    benchmark(run)


def test_bench_streaming_replay(benchmark):
    """A grouped replay of an 80k-claim draw in 600 s windows.

    2000 accounts x 500 tasks at density 0.08 over eight hours, so the
    replay folds 48 windows through the engine.
    """
    from repro.core.streaming import StreamingTruthDiscovery, replay_dataset
    from repro.core.types import Observation
    from tests.core.campaigns import claims_80k

    claims, grouping = claims_80k(seed=31)
    observations = [Observation(a, t, v, ts) for ts, a, t, v in claims]

    def run():
        engine = StreamingTruthDiscovery(decay=0.9, grouping=grouping)
        return engine, replay_dataset(engine, observations, batch_seconds=600.0)

    engine, truths = benchmark(run)
    assert engine.batches_seen == 48 and len(truths) == 500


def test_bench_pruned_dtw_matrix(benchmark):
    """Threshold-pruned pairwise DTW over 40 trajectories of length 50.

    Runs AG-TR's scoring path; the one-point zero timestamp series add
    nothing, so each score is the task series' raw DTW cost.
    """
    from repro.core.grouping.trajectory import pairwise_trajectory_dissimilarity

    rng = np.random.default_rng(8)
    # Half the series share one template (below threshold), half are far.
    template = rng.normal(size=50)
    series = [template + rng.normal(0, 0.05, size=50) for _ in range(20)]
    series += [template + rng.normal(40, 5, size=50) for _ in range(20)]
    trajectories = [(s, np.zeros(1)) for s in series]
    benchmark(
        lambda: pairwise_trajectory_dissimilarity(trajectories, prune_threshold=10.0)
    )
