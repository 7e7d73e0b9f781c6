"""Reference AG-FP features: the per-element loops and the two-pass fit.

A test-only oracle for :mod:`repro.features`: the Table II roughness as a
double loop over peak pairs with scalar ``np.exp``, the peak picker and
the zero-crossing rate as per-sample loops, and ``fit_transform`` as
``fit`` followed by ``transform``, each running the feature pass.  The
other eighteen Table II features have a single implementation and are
taken from the library registries unchanged.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro._nputil import EPS
from repro.features.extractor import STREAM_NAMES
from repro.features.spectral import SPECTRAL_FEATURES, magnitude_spectrum
from repro.features.temporal import TEMPORAL_FEATURES


def oracle_spectral_roughness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Table II #20, one peak pair at a time."""
    peaks = oracle_spectral_peaks(freqs, mags)
    if len(peaks) < 2:
        return 0.0
    b1, b2 = 3.5, 5.75
    s1, s2, x_star = 0.0207, 18.96, 0.24
    scale = 1000.0
    total = 0.0
    count = 0
    for i in range(len(peaks)):
        for j in range(i + 1, len(peaks)):
            f1, m1 = peaks[i]
            f2, m2 = peaks[j]
            fmin = min(f1, f2) * scale
            df = abs(f1 - f2) * scale
            s = x_star / (s1 * fmin + s2)
            total += m1 * m2 * (np.exp(-b1 * s * df) - np.exp(-b2 * s * df))
            count += 1
    return float(total / count)


def oracle_spectral_peaks(freqs: np.ndarray, mags: np.ndarray) -> list:
    """Local maxima of the magnitude spectrum as ``(freq, mag)`` pairs."""
    peaks = []
    for k in range(1, len(mags) - 1):
        if mags[k] > mags[k - 1] and mags[k] >= mags[k + 1]:
            peaks.append((float(freqs[k]), float(mags[k])))
    return peaks


def oracle_zero_crossing_rate(signal: Sequence[float]) -> float:
    """Table II #8, carrying signs through zeros one sample at a time."""
    arr = np.asarray(signal, dtype=float)
    if len(arr) < 2:
        return 0.0
    signs = np.sign(arr)
    for idx in range(1, len(signs)):
        if signs[idx] == 0:
            signs[idx] = signs[idx - 1]
    crossings = np.sum(signs[1:] * signs[:-1] < 0)
    return float(crossings / (len(arr) - 1))


def oracle_stream_features(signal: Sequence[float]) -> np.ndarray:
    """The 20 Table II features of one stream, loops in place of arrays."""
    arr = np.asarray(signal, dtype=float)
    temporal = [
        oracle_zero_crossing_rate(arr) if name == "zcr" else fn(arr)
        for name, fn in TEMPORAL_FEATURES.items()
    ]
    freqs, mags = magnitude_spectrum(arr)
    spectral = [
        oracle_spectral_roughness(freqs, mags)
        if name == "spectral_roughness"
        else fn(freqs, mags)
        for name, fn in SPECTRAL_FEATURES.items()
    ]
    return np.concatenate([np.array(temporal), np.array(spectral)])


def oracle_feature_matrix(
    captures: Sequence[Mapping[str, Sequence[float]]],
) -> np.ndarray:
    """Raw ``(n, 80)`` features, one capture and one stream at a time."""
    return np.vstack(
        [
            np.concatenate([oracle_stream_features(c[name]) for name in STREAM_NAMES])
            for c in captures
        ]
    )


def oracle_fit_transform(
    captures: Sequence[Mapping[str, Sequence[float]]],
) -> np.ndarray:
    """``fit`` then ``transform``: two feature passes over the captures."""
    raw = oracle_feature_matrix(captures)
    mean = raw.mean(axis=0)
    spread = raw.std(axis=0)
    scale = np.where(spread < EPS, 1.0, spread)
    raw = oracle_feature_matrix(captures)
    return (raw - mean) / scale
