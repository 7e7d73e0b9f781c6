"""The block feature kernel equals the scalar, one-stream oracle bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import spectral, temporal
from repro.features.extractor import (
    STREAM_NAMES,
    FeatureExtractor,
    capture_features,
    feature_matrix,
    stream_features,
)
from repro.simulation.scenario import PaperScenarioConfig, build_scenario
from tests.features import feature_oracle as oracle
from tests.features.strategies import capture_lists, streams


@st.composite
def blocks(draw):
    """A ``(rows, samples)`` block of equal-length streams."""
    n = draw(st.integers(2, 300))
    return np.stack(draw(st.lists(streams(length=n), min_size=1, max_size=6)))


def _bytes(value):
    return np.asarray(value, dtype=float).tobytes()


def _peaks(freqs, mags):
    mask = spectral._peak_mask(mags)
    return list(zip(freqs[1:-1][mask].tolist(), mags[1:-1][mask].tolist()))


def test_oracle_streams_are_the_library_streams():
    assert oracle.STREAM_NAMES == STREAM_NAMES
    assert list(oracle.TEMPORAL_FEATURES) == list(temporal.TEMPORAL_FEATURES)
    assert list(oracle.SPECTRAL_FEATURES) == list(spectral.SPECTRAL_FEATURES)


@given(streams())
@settings(max_examples=200, deadline=None)
def test_zero_crossing_rate_equals_the_loop(signal):
    got = temporal.zero_crossing_rate(signal)
    assert got == oracle.oracle_zero_crossing_rate(signal)
    assert got == oracle.zero_crossing_rate(signal)


@given(streams())
@settings(max_examples=200, deadline=None)
def test_roughness_and_peaks_equal_the_loops(signal):
    freqs, mags = spectral.magnitude_spectrum(signal)
    assert _peaks(freqs, mags) == oracle.oracle_spectral_peaks(freqs, mags)
    got = spectral.spectral_roughness(freqs, mags)
    assert _bytes(got) == _bytes(oracle.oracle_spectral_roughness(freqs, mags))
    assert _bytes(got) == _bytes(oracle.spectral_roughness(freqs, mags))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60), st.floats(-6, 6))
@settings(max_examples=200, deadline=None)
def test_peaks_on_plateaued_spectra_equal_the_loop(levels, exponent):
    # Magnitudes with long runs of equal values: a plateau is a peak only at
    # its left end, and only when the bin before it is lower.
    mags = np.array(levels, dtype=float) * 10.0**exponent
    freqs = np.linspace(0.0, 0.5, len(mags) + 1)[1:]
    assert _peaks(freqs, mags) == oracle.oracle_spectral_peaks(freqs, mags)
    got = spectral.spectral_roughness(freqs, mags)
    assert _bytes(got) == _bytes(oracle.oracle_spectral_roughness(freqs, mags))


@given(st.one_of(streams(), streams(max_len=3)))
@settings(max_examples=200, deadline=None)
def test_every_table_ii_function_equals_the_scalar_oracle(signal):
    for name, fn in temporal.TEMPORAL_FEATURES.items():
        assert _bytes(fn(signal)) == _bytes(oracle.TEMPORAL_FEATURES[name](signal)), name
        # Temporal features are defined on a single sample too.
        assert _bytes(fn(signal[:1])) == _bytes(oracle.TEMPORAL_FEATURES[name](signal[:1]))
    freqs, mags = spectral.magnitude_spectrum(signal)
    want_freqs, want_mags = oracle.magnitude_spectrum(signal)
    assert (_bytes(freqs), _bytes(mags)) == (_bytes(want_freqs), _bytes(want_mags))
    for name, fn in spectral.SPECTRAL_FEATURES.items():
        assert _bytes(fn(freqs, mags)) == _bytes(oracle.SPECTRAL_FEATURES[name](freqs, mags)), name
    assert _bytes(temporal.temporal_feature_vector(signal)) == _bytes(
        oracle.temporal_feature_vector(signal)
    )
    assert _bytes(spectral.spectral_feature_vector(signal)) == _bytes(
        oracle.spectral_feature_vector(signal)
    )
    assert _bytes(stream_features(signal)) == _bytes(oracle.oracle_stream_features(signal))


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_block_rows_equal_the_scalar_oracle(block):
    got = stream_features(block)
    assert got.shape == (len(block), 20)
    for row, signal in zip(got, block):
        assert row.tobytes() == oracle.oracle_stream_features(signal).tobytes()
    assert temporal.temporal_feature_vector(block).tobytes() == got[:, :9].tobytes()
    assert spectral.spectral_feature_vector(block).tobytes() == got[:, 9:].tobytes()


@given(capture_lists(streams()))
@settings(max_examples=40, deadline=None)
def test_feature_matrix_and_fit_transform_equal_the_oracle(captures):
    assert feature_matrix(captures).tobytes() == oracle.oracle_feature_matrix(captures).tobytes()
    for capture in captures:
        assert capture_features(capture).tobytes() == (
            oracle.oracle_capture_features(capture).tobytes()
        )
    got = FeatureExtractor().fit_transform(captures)
    assert got.tobytes() == oracle.oracle_fit_transform(captures).tobytes()


@given(capture_lists(streams(max_len=60)), capture_lists(streams(max_len=60)))
@settings(max_examples=20, deadline=None)
def test_fit_transform_equals_fit_then_transform(population, fresh):
    extractor = FeatureExtractor()
    once = extractor.fit_transform(population)
    mean, scale = extractor.mean_.tobytes(), extractor.scale_.tobytes()
    fitted = FeatureExtractor().fit(population)
    assert (fitted.mean_.tobytes(), fitted.scale_.tobytes()) == (mean, scale)
    assert fitted.transform(population).tobytes() == once.tobytes()
    assert fitted.transform(fresh).tobytes() == extractor.transform(fresh).tobytes()


@given(capture_lists(streams(max_len=120), max_size=6))
@settings(max_examples=30, deadline=None)
def test_small_blocks_and_pair_passes_change_no_byte(captures):
    # Split every length group into blocks of a few streams, and every
    # block's roughness into passes of a few peak pairs.
    whole = feature_matrix(captures)
    with mock.patch("repro.features.extractor._BLOCK_SAMPLES", 250), mock.patch(
        "repro.features.spectral._PAIR_CHUNK", 7
    ):
        assert feature_matrix(captures).tobytes() == whole.tobytes()


LEGIT_PANELS = (0.2, 0.5, 1.0)
SYBIL_LEVELS = (0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.mark.parametrize("panel", range(len(LEGIT_PANELS)))
def test_paper_grid_campaigns_equal_the_oracle(panel):
    # The 15 Fig. 6/7 grid cells of seed 31, five per panel, as the
    # repository benchmark's paper-grid workload builds them.
    for level in range(len(SYBIL_LEVELS)):
        config = PaperScenarioConfig(
            legit_activeness=LEGIT_PANELS[panel], sybil_activeness=SYBIL_LEVELS[level]
        )
        scenario = build_scenario(config, np.random.default_rng([31, panel, level]))
        captures = [capture.streams for capture in scenario.fingerprints]
        assert feature_matrix(captures).tobytes() == (
            oracle.oracle_feature_matrix(captures).tobytes()
        )
        got = FeatureExtractor().fit_transform(captures)
        assert got.tobytes() == oracle.oracle_fit_transform(captures).tobytes()
        first = captures[0]
        assert capture_features(first).tobytes() == (
            oracle.oracle_capture_features(first).tobytes()
        )
        for name in STREAM_NAMES:
            assert stream_features(first[name]).tobytes() == (
                oracle.oracle_stream_features(first[name]).tobytes()
            )
