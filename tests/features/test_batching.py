"""Metamorphic properties of the batched feature pass.

``feature_matrix`` stacks every stream of every capture into blocks of
equal-length rows; a capture's feature row must not depend on what else
is in the batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.extractor import (
    STREAM_NAMES,
    capture_features,
    feature_matrix,
    stream_features,
)
from tests.features.strategies import capture_lists, streams

#: Short streams, so lengths collide across captures and within a capture
#: often enough to share blocks.
mixed_batches = capture_lists(streams(max_len=12), max_size=8)


@given(st.data(), mixed_batches)
@settings(max_examples=60, deadline=None)
def test_permuting_the_captures_permutes_the_rows(data, captures):
    order = data.draw(st.permutations(range(len(captures))))
    permuted = feature_matrix([captures[i] for i in order])
    assert permuted.tobytes() == feature_matrix(captures)[order].tobytes()


@given(mixed_batches)
@settings(max_examples=60, deadline=None)
def test_each_row_is_the_capture_extracted_alone(captures):
    batch = feature_matrix(captures)
    for row, capture in zip(batch, captures):
        assert row.tobytes() == feature_matrix([capture])[0].tobytes()
        for position, name in enumerate(STREAM_NAMES):
            alone = stream_features(capture[name])
            assert row[20 * position : 20 * (position + 1)].tobytes() == alone.tobytes()


def test_mixed_lengths_across_and_within_captures():
    rng = np.random.default_rng(7)
    lengths = [(300, 300, 300, 300), (300, 50, 300, 7), (50, 50, 2, 300), (7, 300, 50, 2)]
    captures = [
        {name: rng.normal(size=n) for name, n in zip(STREAM_NAMES, shape)}
        for shape in lengths
    ]
    batch = feature_matrix(captures)
    for row, capture in zip(batch, captures):
        assert row.tobytes() == capture_features(capture).tobytes()


@given(capture_lists(streams(), max_size=1))
@settings(max_examples=40, deadline=None)
def test_one_capture_batch_is_capture_features(captures):
    (capture,) = captures
    alone = capture_features(capture)
    assert feature_matrix(captures)[0].tobytes() == alone.tobytes()
    streams_alone = np.concatenate([stream_features(capture[name]) for name in STREAM_NAMES])
    assert alone.tobytes() == streams_alone.tobytes()
