"""Time-domain features (Table II, rows 1–9).

Each function maps a one-dimensional signal to a scalar.  Definitions
follow the table's descriptions; degenerate inputs are handled explicitly
(e.g. skewness of a constant signal is 0, not NaN) because fingerprint
features feed straight into k-means, which cannot absorb NaNs.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro._nputil import EPS


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
