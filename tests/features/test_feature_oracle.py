"""The whole-array features equal the per-element loop oracle bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import spectral, temporal
from repro.features.extractor import STREAM_NAMES, FeatureExtractor, feature_matrix
from tests.features.feature_oracle import (
    oracle_feature_matrix,
    oracle_fit_transform,
    oracle_spectral_peaks,
    oracle_spectral_roughness,
    oracle_zero_crossing_rate,
)


@st.composite
def streams(draw, max_len=400):
    """Noise, integer steps (plateaus and exact zeros) or constants, at
    magnitudes from 1e-6 to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_len))
    kind = draw(st.sampled_from(["noise", "steps", "constant"]))
    if kind == "noise":
        signal = rng.normal(size=n)
        signal[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    elif kind == "steps":
        signal = np.repeat(rng.integers(-2, 3, size=n), rng.integers(1, 6, size=n))
        signal = signal[:n].astype(float)
    else:
        signal = np.full(n, draw(st.sampled_from([0.0, -1.0, 3.5])))
    return signal * 10.0 ** draw(st.floats(-6, 6))


def _captures(draw_streams):
    return st.lists(
        st.fixed_dictionaries({name: draw_streams for name in STREAM_NAMES}),
        min_size=1,
        max_size=3,
    )


@given(streams())
@settings(max_examples=200, deadline=None)
def test_zero_crossing_rate_equals_the_loop(signal):
    assert temporal.zero_crossing_rate(signal) == oracle_zero_crossing_rate(signal)


@given(streams())
@settings(max_examples=200, deadline=None)
def test_roughness_and_peaks_equal_the_loops(signal):
    freqs, mags = spectral.magnitude_spectrum(signal)
    peak_freqs, peak_mags = spectral._spectral_peaks(freqs, mags)
    assert list(zip(peak_freqs.tolist(), peak_mags.tolist())) == (
        oracle_spectral_peaks(freqs, mags)
    )
    got = spectral.spectral_roughness(freqs, mags)
    assert np.float64(got).tobytes() == np.float64(
        oracle_spectral_roughness(freqs, mags)
    ).tobytes()


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60), st.floats(-6, 6))
@settings(max_examples=200, deadline=None)
def test_peaks_on_plateaued_spectra_equal_the_loop(levels, exponent):
    # Magnitudes with long runs of equal values: a plateau is a peak only at
    # its left end, and only when the bin before it is lower.
    mags = np.array(levels, dtype=float) * 10.0**exponent
    freqs = np.linspace(0.0, 0.5, len(mags) + 1)[1:]
    peak_freqs, peak_mags = spectral._spectral_peaks(freqs, mags)
    assert list(zip(peak_freqs.tolist(), peak_mags.tolist())) == (
        oracle_spectral_peaks(freqs, mags)
    )
    got = spectral.spectral_roughness(freqs, mags)
    assert np.float64(got).tobytes() == np.float64(
        oracle_spectral_roughness(freqs, mags)
    ).tobytes()


@given(_captures(streams()))
@settings(max_examples=40, deadline=None)
def test_feature_matrix_and_fit_transform_equal_the_oracle(captures):
    assert feature_matrix(captures).tobytes() == oracle_feature_matrix(captures).tobytes()
    got = FeatureExtractor().fit_transform(captures)
    assert got.tobytes() == oracle_fit_transform(captures).tobytes()


@given(_captures(streams(max_len=60)), _captures(streams(max_len=60)))
@settings(max_examples=20, deadline=None)
def test_fit_transform_equals_fit_then_transform(population, fresh):
    extractor = FeatureExtractor()
    once = extractor.fit_transform(population)
    mean, scale = extractor.mean_.tobytes(), extractor.scale_.tobytes()
    fitted = FeatureExtractor().fit(population)
    assert (fitted.mean_.tobytes(), fitted.scale_.tobytes()) == (mean, scale)
    assert fitted.transform(population).tobytes() == once.tobytes()
    assert fitted.transform(fresh).tobytes() == extractor.transform(fresh).tobytes()
