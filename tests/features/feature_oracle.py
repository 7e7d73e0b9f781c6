"""Reference AG-FP features: one stream at a time, independent of the library.

A test-only oracle for :mod:`repro.features`.  The nine temporal and eleven
spectral Table II functions below are the scalar, one-signal-at-a-time
definitions the library used before its block kernel, copied verbatim
(only the library's module docstrings are dropped): each maps one 1-D
signal (or one spectrum) to a Python float.  ``oracle_feature_matrix``
runs them capture by capture and stream by stream, and
``oracle_fit_transform`` is ``fit`` followed by ``transform``, each running
the feature pass.

Beside them, three per-element loops check the array idioms the scalar
functions themselves rely on: Table II roughness as a double loop over
peak pairs with scalar ``np.exp``, the peak picker, and the zero-crossing
rate's sign carry.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

EPS = 1e-12

#: The four sensor streams of a capture, in feature order.
STREAM_NAMES: Tuple[str, ...] = ("accel_magnitude", "gyro_x", "gyro_y", "gyro_z")


# ----------------------------------------------------------------------
# Temporal features (Table II rows 1-9), one signal at a time
# ----------------------------------------------------------------------


def _as_signal(signal: Sequence[float]) -> np.ndarray:
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {arr.shape}")
    if len(arr) == 0:
        raise ValueError("signal must be non-empty")
    return arr


def mean(signal: Sequence[float]) -> float:
    """Arithmetic mean of the signal (Table II #1)."""
    return float(_as_signal(signal).mean())


def standard_deviation(signal: Sequence[float]) -> float:
    """Population standard deviation (Table II #2)."""
    return float(_as_signal(signal).std())


def skewness(signal: Sequence[float]) -> float:
    """Third standardized moment — asymmetry about the mean (Table II #3).

    Returns 0 for (near-)constant signals, where the moment is undefined.
    """
    arr = _as_signal(signal)
    sigma = arr.std()
    if sigma < EPS:
        return 0.0
    return float(((arr - arr.mean()) ** 3).mean() / sigma**3)


def kurtosis(signal: Sequence[float]) -> float:
    """Fourth standardized moment — flatness/spikiness (Table II #4).

    This is the raw (non-excess) kurtosis: a Gaussian signal scores ~3.
    Returns 0 for (near-)constant signals.
    """
    arr = _as_signal(signal)
    sigma = arr.std()
    if sigma < EPS:
        return 0.0
    return float(((arr - arr.mean()) ** 4).mean() / sigma**4)


def root_mean_square(signal: Sequence[float]) -> float:
    """Square root of the mean squared amplitude (Table II #5)."""
    arr = _as_signal(signal)
    return float(np.sqrt((arr**2).mean()))


def maximum(signal: Sequence[float]) -> float:
    """Maximum signal value (Table II #6)."""
    return float(_as_signal(signal).max())


def minimum(signal: Sequence[float]) -> float:
    """Minimum signal value (Table II #7)."""
    return float(_as_signal(signal).min())


def zero_crossing_rate(signal: Sequence[float]) -> float:
    """Rate of sign changes per sample (Table II #8).

    A zero crossing is a transition between strictly positive and strictly
    negative consecutive samples (zeros break a run without counting as a
    crossing themselves).  Normalized by ``len - 1`` so the rate lies in
    [0, 1]; a single-sample signal has rate 0.
    """
    arr = _as_signal(signal)
    if len(arr) < 2:
        return 0.0
    signs = np.sign(arr)
    # Carry the last nonzero sign forward through exact zeros: each sample
    # takes the sign of the latest nonzero sample at or before it (a
    # leading run of zeros stays 0).
    positions = np.arange(len(signs))
    last_nonzero = np.maximum.accumulate(np.where(signs != 0, positions, 0))
    signs = signs[last_nonzero]
    crossings = np.sum(signs[1:] * signs[:-1] < 0)
    return float(crossings / (len(arr) - 1))


def non_negative_count(signal: Sequence[float]) -> float:
    """Number of samples that are >= 0 (Table II #9)."""
    return float(np.sum(_as_signal(signal) >= 0))


#: Ordered registry of the nine temporal features of Table II.
TEMPORAL_FEATURES: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": mean,
    "std": standard_deviation,
    "skewness": skewness,
    "kurtosis": kurtosis,
    "rms": root_mean_square,
    "max": maximum,
    "min": minimum,
    "zcr": zero_crossing_rate,
    "non_negative_count": non_negative_count,
}


def temporal_feature_vector(signal: Sequence[float]) -> np.ndarray:
    """All nine temporal features of Table II, in registry order."""
    arr = _as_signal(signal)
    return np.array([fn(arr) for fn in TEMPORAL_FEATURES.values()])


# ----------------------------------------------------------------------
# Spectral features (Table II rows 10-20), one spectrum at a time
# ----------------------------------------------------------------------


#: Rolloff concentration level (Table II row 17: "85% of the distribution").
ROLLOFF_FRACTION = 0.85

#: Brightness cut-off as a fraction of the Nyquist frequency.  MIRtoolbox
#: defaults to 1500 Hz at 44.1 kHz audio; for arbitrary-rate sensor streams
#: we use the same relative position in the band.
BRIGHTNESS_CUTOFF_FRACTION = 0.1


def magnitude_spectrum(signal: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided magnitude spectrum and its normalized frequency axis.

    Returns ``(frequencies, magnitudes)`` with the DC bin removed.  The
    signal must have at least two samples so at least one non-DC bin
    exists.
    """
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {arr.shape}")
    if len(arr) < 2:
        raise ValueError("spectral features need at least 2 samples")
    spectrum = np.abs(np.fft.rfft(arr))
    freqs = np.fft.rfftfreq(len(arr))
    return freqs[1:], spectrum[1:]


def _moments(freqs: np.ndarray, mags: np.ndarray) -> Tuple[float, float]:
    """Spectral centroid and spread (the first two spectral moments)."""
    total = mags.sum()
    if total < EPS:
        return 0.0, 0.0
    weights = mags / total
    centroid = float((freqs * weights).sum())
    spread = float(np.sqrt(((freqs - centroid) ** 2 * weights).sum()))
    return centroid, spread


def spectral_centroid(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Center of mass of the spectral power distribution (Table II #10)."""
    centroid, _ = _moments(freqs, mags)
    return centroid


def spectral_spread(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Dispersion of the spectrum around its centroid (Table II #11)."""
    _, spread = _moments(freqs, mags)
    return spread


def spectral_skewness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Coefficient of skewness of the spectrum (Table II #12)."""
    centroid, spread = _moments(freqs, mags)
    if spread < EPS:
        return 0.0
    total = mags.sum()
    weights = mags / total
    return float((((freqs - centroid) / spread) ** 3 * weights).sum())


def spectral_kurtosis(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Spectral flatness/spikiness relative to a normal shape (Table II #13)."""
    centroid, spread = _moments(freqs, mags)
    if spread < EPS:
        return 0.0
    total = mags.sum()
    weights = mags / total
    return float((((freqs - centroid) / spread) ** 4 * weights).sum())


def spectral_flatness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Geometric over arithmetic mean of the spectrum (Table II #14).

    1 for white noise (energy evenly spread), → 0 for pure tones.
    """
    mags = np.maximum(mags, EPS)
    geometric = float(np.exp(np.log(mags).mean()))
    arithmetic = float(mags.mean())
    return geometric / arithmetic if arithmetic > EPS else 0.0


def spectral_irregularity(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Variation between successive spectral amplitudes (Table II #15).

    Jensen's definition: ``sum (m_k - m_{k+1})^2 / sum m_k^2``.
    """
    if len(mags) < 2:
        return 0.0
    denom = float((mags**2).sum())
    if denom < EPS:
        return 0.0
    return float(((mags[:-1] - mags[1:]) ** 2).sum() / denom)


def spectral_entropy(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Shannon entropy of the normalized power spectrum (Table II #16).

    Normalized by ``log(n_bins)`` to lie in [0, 1].
    """
    power = mags**2
    total = power.sum()
    if total < EPS or len(power) < 2:
        return 0.0
    p = power / total
    p = np.maximum(p, EPS)
    return float(-(p * np.log(p)).sum() / np.log(len(p)))


def spectral_rolloff(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Frequency below which 85% of magnitude is concentrated (Table II #17)."""
    total = mags.sum()
    if total < EPS:
        return 0.0
    cumulative = np.cumsum(mags)
    idx = int(np.searchsorted(cumulative, ROLLOFF_FRACTION * total))
    idx = min(idx, len(freqs) - 1)
    return float(freqs[idx])


def spectral_brightness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Fraction of spectral energy above the cut-off frequency (Table II #18)."""
    total = mags.sum()
    if total < EPS:
        return 0.0
    cutoff = BRIGHTNESS_CUTOFF_FRACTION * 0.5  # fraction of Nyquist
    return float(mags[freqs >= cutoff].sum() / total)


def spectral_rms(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Root mean square of the spectral magnitudes (Table II #19)."""
    return float(np.sqrt((mags**2).mean()))


def spectral_roughness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Average pairwise dissonance between spectral peaks (Table II #20).

    Implements the Plomp–Levelt estimate used by MIRtoolbox: pick local
    maxima of the magnitude spectrum, evaluate the dissonance curve

    ``d(f1, f2, m1, m2) = m1 * m2 * (exp(-b1 * s * df) - exp(-b2 * s * df))``

    with ``s = x* / (s1 * fmin + s2)`` for every peak pair ``i < j``, and
    average.  The pair terms are one array over ``np.triu_indices``, in
    row-major pair order; their total is a running ``cumsum``, i.e. the
    sequential left-to-right sum (``ndarray.sum`` would sum pairwise and
    round differently).  Frequencies are normalized; the constants are the
    classic Sethares fit.  Returns 0 when fewer than two peaks exist.
    """
    peak_freqs, peak_mags = _spectral_peaks(freqs, mags)
    if len(peak_freqs) < 2:
        return 0.0
    b1, b2 = 3.5, 5.75
    s1, s2, x_star = 0.0207, 18.96, 0.24
    # Rescale normalized frequency to a pseudo-Hz axis so the Plomp-Levelt
    # constants (fitted in Hz) operate in a sensible range.
    scale = 1000.0
    i, j = np.triu_indices(len(peak_freqs), 1)
    f1, f2 = peak_freqs[i], peak_freqs[j]
    m1, m2 = peak_mags[i], peak_mags[j]
    fmin = np.minimum(f1, f2) * scale
    df = np.abs(f1 - f2) * scale
    s = x_star / (s1 * fmin + s2)
    terms = m1 * m2 * (np.exp(-b1 * s * df) - np.exp(-b2 * s * df))
    return float(np.cumsum(terms)[-1] / len(terms))


def _spectral_peaks(
    freqs: np.ndarray, mags: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Local maxima of the magnitude spectrum as ``(freqs, mags)`` arrays.

    Bin ``k`` (never the first or last) is a peak when it rises strictly
    above its left neighbour and is at least its right one, so a plateau
    counts once, at its left end.
    """
    inner = mags[1:-1]
    mask = (inner > mags[:-2]) & (inner >= mags[2:])
    return freqs[1:-1][mask], inner[mask]


#: Ordered registry of the eleven spectral features of Table II.
SPECTRAL_FEATURES: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "spectral_centroid": spectral_centroid,
    "spectral_spread": spectral_spread,
    "spectral_skewness": spectral_skewness,
    "spectral_kurtosis": spectral_kurtosis,
    "spectral_flatness": spectral_flatness,
    "spectral_irregularity": spectral_irregularity,
    "spectral_entropy": spectral_entropy,
    "spectral_rolloff": spectral_rolloff,
    "spectral_brightness": spectral_brightness,
    "spectral_rms": spectral_rms,
    "spectral_roughness": spectral_roughness,
}


def spectral_feature_vector(signal: Sequence[float]) -> np.ndarray:
    """All eleven spectral features of Table II, in registry order."""
    freqs, mags = magnitude_spectrum(signal)
    return np.array([fn(freqs, mags) for fn in SPECTRAL_FEATURES.values()])


# ----------------------------------------------------------------------
# Per-element loops behind the array idioms above
# ----------------------------------------------------------------------


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
    """The 20 Table II features of one stream."""
    return np.concatenate(
        [temporal_feature_vector(signal), spectral_feature_vector(signal)]
    )


def oracle_capture_features(streams: Mapping[str, Sequence[float]]) -> np.ndarray:
    """The 80 raw features of one capture, stream by stream."""
    return np.concatenate(
        [oracle_stream_features(np.asarray(streams[name], dtype=float)) for name in STREAM_NAMES]
    )


def oracle_feature_matrix(
    captures: Sequence[Mapping[str, Sequence[float]]],
) -> np.ndarray:
    """Raw ``(n, 80)`` features, one capture and one stream at a time."""
    return np.vstack([oracle_capture_features(c) for c in captures])


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
