"""Streaming truth discovery tests: decay, tracking, Sybil grouping."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingTruthDiscovery, replay_dataset
from repro.core.types import Grouping, Observation
from repro.errors import DataValidationError


def _obs(account, task, value, t=0.0):
    return Observation(account, task, value, t)


class TestBasics:
    def test_decay_validation(self):
        with pytest.raises(ValueError, match="decay"):
            StreamingTruthDiscovery(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            StreamingTruthDiscovery(decay=1.5)

    def test_empty_batch_is_noop(self):
        engine = StreamingTruthDiscovery()
        assert engine.observe([]) == {}
        assert engine.batches_seen == 0

    def test_single_batch_estimates_within_claims(self):
        engine = StreamingTruthDiscovery()
        truths = engine.observe(
            [_obs("a", "T1", 10.0), _obs("b", "T1", 12.0)]
        )
        assert 10.0 <= truths["T1"] <= 12.0

    def test_batches_counted(self):
        engine = StreamingTruthDiscovery()
        engine.observe([_obs("a", "T1", 1.0)])
        engine.observe([_obs("a", "T1", 1.0)])
        assert engine.batches_seen == 2

    def test_snapshot_is_result_object(self):
        engine = StreamingTruthDiscovery()
        engine.observe([_obs("a", "T1", 5.0)])
        snap = engine.snapshot()
        assert snap.truths["T1"] == pytest.approx(5.0)
        assert snap.iterations == 1


class TestConvergenceAndWeights:
    def test_honest_majority_converges_to_truth(self, rng):
        engine = StreamingTruthDiscovery(decay=0.95)
        for _ in range(50):
            batch = [
                _obs(f"a{i}", "T1", -75.0 + rng.normal(0, 1.0))
                for i in range(5)
            ]
            engine.observe(batch)
        assert engine.truths["T1"] == pytest.approx(-75.0, abs=1.0)

    def test_noisy_source_gets_lower_weight(self, rng):
        engine = StreamingTruthDiscovery(decay=0.95)
        for _ in range(40):
            engine.observe(
                [
                    _obs("good1", "T1", -75.0 + rng.normal(0, 0.5)),
                    _obs("good2", "T1", -75.0 + rng.normal(0, 0.5)),
                    _obs("wild", "T1", -75.0 + rng.normal(0, 15.0)),
                ]
            )
        weights = engine.weights
        assert weights["wild"] < min(weights["good1"], weights["good2"])

    def test_tracks_evolving_truth(self, rng):
        # The truth jumps from -80 to -60 mid-stream; with decay < 1 the
        # estimate must follow.
        engine = StreamingTruthDiscovery(decay=0.8)
        for _ in range(30):
            engine.observe(
                [_obs(f"a{i}", "T1", -80.0 + rng.normal(0, 0.5)) for i in range(4)]
            )
        assert engine.truths["T1"] == pytest.approx(-80.0, abs=1.0)
        for _ in range(40):
            engine.observe(
                [_obs(f"a{i}", "T1", -60.0 + rng.normal(0, 0.5)) for i in range(4)]
            )
        assert engine.truths["T1"] == pytest.approx(-60.0, abs=2.0)

    def test_no_decay_is_sticky(self, rng):
        # With decay=1.0 history never fades: after many -80 batches, a
        # few -60 batches barely move the estimate.
        engine = StreamingTruthDiscovery(decay=1.0)
        for _ in range(50):
            engine.observe(
                [_obs(f"a{i}", "T1", -80.0) for i in range(4)]
            )
        for _ in range(3):
            engine.observe(
                [_obs(f"a{i}", "T1", -60.0) for i in range(4)]
            )
        assert engine.truths["T1"] < -75.0


class TestSybilGrouping:
    def test_grouped_accounts_get_one_vote(self, rng):
        grouping = Grouping.from_groups(
            [["s1", "s2", "s3", "s4"], ["h1"], ["h2"]]
        )
        defended = StreamingTruthDiscovery(decay=0.95, grouping=grouping)
        undefended = StreamingTruthDiscovery(decay=0.95)
        for _ in range(30):
            batch = [
                _obs("h1", "T1", -75.0 + rng.normal(0, 0.5)),
                _obs("h2", "T1", -75.0 + rng.normal(0, 0.5)),
            ] + [_obs(f"s{k}", "T1", -50.0) for k in range(1, 5)]
            defended.observe(list(batch))
            undefended.observe(list(batch))
        # The attacker's 4 accounts collapse to one vote when grouped.
        assert abs(defended.truths["T1"] - (-75.0)) < abs(
            undefended.truths["T1"] - (-75.0)
        )

    def test_sources_named_by_group(self):
        grouping = Grouping.from_groups([["a", "b"]])
        engine = StreamingTruthDiscovery(grouping=grouping)
        engine.observe([_obs("a", "T1", 1.0), _obs("b", "T1", 3.0)])
        assert list(engine.weights) == ["g0"]
        # One merged vote: the task estimate is the group mean.
        assert engine.truths["T1"] == pytest.approx(2.0)

    def test_ungrouped_account_is_singleton_source(self):
        grouping = Grouping.from_groups([["a", "b"]])
        engine = StreamingTruthDiscovery(grouping=grouping)
        engine.observe([_obs("a", "T1", 1.0), _obs("zzz", "T1", 3.0)])
        assert "zzz" in engine.weights


class TestReplay:
    def test_replay_batches_by_time_window(self, paper_scenario):
        engine = StreamingTruthDiscovery(decay=0.98)
        observations = [
            obs
            for account in paper_scenario.dataset.accounts
            for obs in paper_scenario.dataset.observations_for_account(account)
        ]
        truths = replay_dataset(engine, observations, batch_seconds=300.0)
        assert set(truths) <= set(paper_scenario.dataset.tasks)
        assert engine.batches_seen > 1

    def test_replay_with_grouping_beats_without(self, high_activity_scenario):
        from repro.core.grouping import TrajectoryGrouper
        from repro.metrics.accuracy import mean_absolute_error

        scenario = high_activity_scenario
        observations = [
            obs
            for account in scenario.dataset.accounts
            for obs in scenario.dataset.observations_for_account(account)
        ]
        grouping = TrajectoryGrouper().group(scenario.dataset)
        defended = StreamingTruthDiscovery(decay=0.99, grouping=grouping)
        undefended = StreamingTruthDiscovery(decay=0.99)
        replay_dataset(defended, list(observations))
        replay_dataset(undefended, list(observations))
        mae_defended = mean_absolute_error(
            defended.truths, scenario.ground_truths
        )
        mae_undefended = mean_absolute_error(
            undefended.truths, scenario.ground_truths
        )
        assert mae_defended < mae_undefended

    def test_bad_batch_seconds(self):
        with pytest.raises(DataValidationError, match="batch_seconds"):
            replay_dataset(StreamingTruthDiscovery(), [], batch_seconds=0.0)


class _Recorder:
    """Stands in for the engine: records each batch ``observe`` gets."""

    def __init__(self):
        self.batches = []
        self.truths = {}

    def observe(self, batch):
        self.batches.append(list(batch))


def _stepping_replay(engine, observations, batch_seconds):
    """The window loop ``replay_dataset`` used to run: one step per window."""
    ordered = sorted(observations, key=lambda o: (o.timestamp, o.account_id))
    batch, window_end = [], None
    for obs in ordered:
        if window_end is None:
            window_end = obs.timestamp + batch_seconds
        if obs.timestamp >= window_end:
            engine.observe(batch)
            batch = []
            while obs.timestamp >= window_end:
                window_end += batch_seconds
        batch.append(obs)
    if batch:
        engine.observe(batch)


class TestReplayWindows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 500), max_size=30),
        st.sampled_from([1.0, 7.0, 60.0, 600.0]),
    )
    def test_same_batches_as_the_stepping_loop(self, stamps, batch_seconds):
        observations = [_obs(f"a{k}", "T1", 1.0, float(t)) for k, t in enumerate(stamps)]
        stepped, replayed = _Recorder(), _Recorder()
        _stepping_replay(stepped, observations, batch_seconds)
        replay_dataset(replayed, observations, batch_seconds)
        assert replayed.batches == stepped.batches

    @pytest.mark.parametrize(
        "stamps, batches",
        [
            ([0.0, 1.0, 1e13, 1e13 + 10.0], 2),
            ([0.0, 1e20], 2),
            ([1e20, 1e20 + 1e5, 3e20], 3),
        ],
    )
    def test_huge_gaps_return_at_once(self, stamps, batches):
        recorder = _Recorder()
        start = time.perf_counter()
        replay_dataset(recorder, [_obs(f"a{k}", "T1", 1.0, t) for k, t in enumerate(stamps)])
        assert time.perf_counter() - start < 1.0
        assert len(recorder.batches) == batches
