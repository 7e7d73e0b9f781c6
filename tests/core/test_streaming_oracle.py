"""Streaming truth discovery against the per-observation reference loop.

Truths, weights (dict order included), the ``streaming.*`` metrics and
the ``streaming.batch`` events must be bit-identical to
``tests/core/streaming_oracle.py``, batch by batch.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingTruthDiscovery, replay_dataset
from repro.core.types import Grouping, Observation
from repro.errors import DataValidationError
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer
from tests.core.campaigns import claims_80k
from tests.core.streaming_oracle import OracleStreaming, oracle_replay

#: ``g0``/``g1`` share their names with the first groups' sources.
ACCOUNTS = ["a0", "a1", "a2", "a3", "a4", "g0", "g1"]
TASKS = ["T0", "T1", "T2"]


def _observed(run):
    """Run ``run()`` under a fresh registry and tracer; return its result,
    the metrics snapshot and the ``(name, fields)`` of every event."""
    registry, tracer = MetricsRegistry(), Tracer()
    previous_metrics, previous_tracer = set_metrics(registry), set_tracer(tracer)
    try:
        result = run()
    finally:
        set_metrics(previous_metrics)
        set_tracer(previous_tracer)
    return result, registry.snapshot(), [(e.name, e.fields) for e in tracer.events]


def _assert_bit_identical(new, old):
    # repr is exact for floats (shortest round trip) and keeps dict order.
    assert repr(new) == repr(old)


def _steps(engine, batches):
    """Per batch: the returned truths and the weights, or the error."""
    steps = []
    for batch in batches:
        try:
            truths = engine.observe(batch)
        except DataValidationError as error:
            steps.append(str(error))
        else:
            steps.append((list(truths.items()), list(engine.weights.items())))
    return steps


@st.composite
def streams(draw):
    """A decay, an optional grouping over some accounts, and batches with
    repeated (account, task) pairs and an occasional out-of-bound value."""
    grouping = None
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(ACCOUNTS[:5]), min_size=1, unique=True))
        groups = {}
        for account in members:
            groups.setdefault(draw(st.integers(0, 2)), []).append(account)
        grouping = Grouping.from_groups(groups.values())
    claim = st.tuples(
        st.sampled_from(ACCOUNTS), st.sampled_from(TASKS), st.floats(-100, 100)
    )
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        batch = [Observation(a, t, v, 0.0) for a, t, v in draw(st.lists(claim, max_size=8))]
        if batch and draw(st.integers(0, 4)) == 0:
            k = draw(st.integers(0, len(batch) - 1))
            bad = draw(st.sampled_from([1e101, -1e300, math.inf, math.nan]))
            batch[k] = Observation(batch[k].account_id, batch[k].task_id, bad, 0.0)
        batches.append(batch)
    return draw(st.sampled_from([1.0, 0.9, 0.5])), grouping, batches


@given(streams())
@settings(max_examples=200, deadline=None)
def test_observe_matches_the_reference_loop(stream):
    decay, grouping, batches = stream
    new = _observed(
        lambda: _steps(StreamingTruthDiscovery(decay=decay, grouping=grouping), batches)
    )
    old = _observed(lambda: _steps(OracleStreaming(decay=decay, grouping=grouping), batches))
    _assert_bit_identical(new, old)


@pytest.mark.parametrize("grouped", [True, False])
def test_claims_80k_replay_matches_the_reference_loop(grouped):
    claims, grouping = claims_80k(seed=20)
    grouping = grouping if grouped else None
    observations = [Observation(a, t, v, ts) for ts, a, t, v in claims]

    def replay(engine, replayer):
        truths = replayer(engine, observations, batch_seconds=600.0)
        return list(truths.items()), list(engine.weights.items())

    new = _observed(
        lambda: replay(StreamingTruthDiscovery(decay=0.9, grouping=grouping), replay_dataset)
    )
    old = _observed(lambda: replay(OracleStreaming(decay=0.9, grouping=grouping), oracle_replay))
    sources = len(grouping) if grouped else len({a for _, a, _, _ in claims})
    assert len(new[2]) == 48 and len(new[0][1]) == sources
    _assert_bit_identical(new, old)


#: Few distinct stamps, so equal timestamps across accounts are common and
#: windows of every batch size below hold several claims.
STAMPS = [0.0, 1.0, 5.0, 59.5, 60.0, 61.0, 130.0, 600.0, 1200.0]


@st.composite
def replays(draw):
    """A decay, a window length, an optional grouping (unknown accounts and
    ``g0``/``g1`` accounts included), an optional ``observe`` batch run
    first, then one or two shuffled recorded streams, some of them empty
    and some with an out-of-bound value."""
    grouping = None
    if draw(st.booleans()):
        members = draw(
            st.lists(st.sampled_from(ACCOUNTS[:5] + ["x0", "x1"]), min_size=1, unique=True)
        )
        groups = {}
        for account in members:
            groups.setdefault(draw(st.integers(0, 2)), []).append(account)
        grouping = Grouping.from_groups(groups.values())
    claim = st.builds(
        Observation,
        st.sampled_from(ACCOUNTS),
        st.sampled_from(TASKS),
        st.floats(-100, 100),
        st.sampled_from(STAMPS),
    )
    prelude = draw(st.lists(claim, max_size=4))
    recorded = []
    for _ in range(draw(st.integers(1, 2))):
        stream = draw(st.permutations(draw(st.lists(claim, max_size=14))))
        if stream and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, len(stream) - 1))
            bad = draw(st.sampled_from([1e101, -1e300, math.inf, math.nan]))
            o = stream[k]
            stream[k] = Observation(o.account_id, o.task_id, bad, o.timestamp)
        recorded.append(stream)
    decay = draw(st.sampled_from([1.0, 0.9, 0.5]))
    return decay, draw(st.sampled_from([1.0, 7.0, 60.0, 600.0])), grouping, prelude, recorded


def _replayed(engine, replayer, prelude, recorded, batch_seconds):
    """After the ``observe`` prelude and after each replay: the returned
    truths or the error, then the engine's truths and weights."""
    steps = []
    if prelude:
        engine.observe(prelude)
    for stream in recorded:
        try:
            steps.append(list(replayer(engine, stream, batch_seconds).items()))
        except DataValidationError as error:
            steps.append(str(error))
        steps.append((list(engine.truths.items()), list(engine.weights.items())))
    return steps


@given(replays())
@settings(max_examples=300, deadline=None)
def test_replay_matches_the_reference_replay(case):
    decay, batch_seconds, grouping, prelude, recorded = case
    new = _observed(
        lambda: _replayed(
            StreamingTruthDiscovery(decay=decay, grouping=grouping),
            replay_dataset, prelude, recorded, batch_seconds,
        )
    )
    old = _observed(
        lambda: _replayed(
            OracleStreaming(decay=decay, grouping=grouping),
            oracle_replay, prelude, recorded, batch_seconds,
        )
    )
    _assert_bit_identical(new, old)


@given(
    st.lists(
        st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from(STAMPS)),
        unique=True,
        max_size=20,
    ),
    st.randoms(use_true_random=False),
    st.sampled_from([1.0, 60.0, 600.0]),
)
@settings(max_examples=200, deadline=None)
def test_shuffled_input_replays_bit_identically(pairs, random, batch_seconds):
    # With no (timestamp, account) pair repeated, the replay order does not
    # depend on the input order, so neither may any output bit.
    observations = [
        Observation(account, TASKS[k % len(TASKS)], float(k) - 7.5, stamp)
        for k, (account, stamp) in enumerate(pairs)
    ]
    shuffled = list(observations)
    random.shuffle(shuffled)

    def replay(stream):
        engine = StreamingTruthDiscovery(decay=0.9)
        truths = replay_dataset(engine, stream, batch_seconds)
        return list(truths.items()), list(engine.weights.items())

    _assert_bit_identical(_observed(lambda: replay(shuffled)), _observed(lambda: replay(observations)))
