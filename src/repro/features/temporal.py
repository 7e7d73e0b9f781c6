"""Time-domain features (Table II, rows 1–9).

The nine features are computed in one block pass, :func:`temporal_feature_vector`,
over the last axis of a signal or of a ``(rows, samples)`` block of equal-length
signals; the per-feature functions are one-row calls into it.  Definitions
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


def _block_features(block: np.ndarray) -> np.ndarray:
    """The nine features of every row of a ``(rows, samples)`` block.

    Each reduction runs along the rows' contiguous axis, so every row gets
    the bytes it would get alone.  The standard deviation's cube and fourth
    power are taken one row at a time: a scalar ``pow`` rounds differently
    from the array power.
    """
    rows, n = block.shape
    means = block.mean(axis=1)
    sigma = block.std(axis=1)
    flat = sigma < EPS
    # Table II #3, #4: standardized third and fourth moments (raw, not
    # excess, kurtosis: a Gaussian scores ~3); 0 for (near-)constant rows.
    deviations = block - means[:, None]
    safe = np.where(flat, 1.0, sigma)
    skewness = (deviations**3).mean(axis=1) / np.array([s**3 for s in safe])
    kurtosis = (deviations**4).mean(axis=1) / np.array([s**4 for s in safe])
    # Table II #8: a zero crossing is a transition between strictly positive
    # and strictly negative consecutive samples.  Each sample takes the sign
    # of the latest nonzero sample at or before it (a leading run of zeros
    # stays 0), so zeros break a run without counting as a crossing.
    if n < 2:
        zcr = np.zeros(rows)
    else:
        signs = np.sign(block)
        positions = np.arange(n)
        last_nonzero = np.maximum.accumulate(
            np.where(signs != 0, positions, 0), axis=1
        )
        signs = np.take_along_axis(signs, last_nonzero, axis=1)
        zcr = (signs[:, 1:] * signs[:, :-1] < 0).sum(axis=1) / (n - 1)
    return np.column_stack(
        [
            means,
            sigma,
            np.where(flat, 0.0, skewness),
            np.where(flat, 0.0, kurtosis),
            np.sqrt((block**2).mean(axis=1)),
            block.max(axis=1),
            block.min(axis=1),
            zcr,
            (block >= 0).sum(axis=1).astype(float),
        ]
    )


def temporal_feature_vector(signal: Sequence[float]) -> np.ndarray:
    """All nine temporal features of Table II, in registry order.

    A 1-D signal gives shape ``(9,)``; a ``(rows, samples)`` block gives
    ``(rows, 9)``, row ``r`` equal byte for byte to the vector of
    ``signal[r]`` alone.
    """
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 2:
        return _block_features(_as_signal(arr)[None])[0]
    if arr.shape[1] == 0:
        raise ValueError("signals must be non-empty")
    return _block_features(arr)


def _feature(position: int, signal: Sequence[float]) -> float:
    return float(temporal_feature_vector(_as_signal(signal))[position])


def mean(signal: Sequence[float]) -> float:
    """Arithmetic mean of the signal (Table II #1)."""
    return _feature(0, signal)


def standard_deviation(signal: Sequence[float]) -> float:
    """Population standard deviation (Table II #2)."""
    return _feature(1, signal)


def skewness(signal: Sequence[float]) -> float:
    """Third standardized moment — asymmetry about the mean (Table II #3).

    Returns 0 for (near-)constant signals, where the moment is undefined.
    """
    return _feature(2, signal)


def kurtosis(signal: Sequence[float]) -> float:
    """Fourth standardized moment — flatness/spikiness (Table II #4).

    This is the raw (non-excess) kurtosis: a Gaussian signal scores ~3.
    Returns 0 for (near-)constant signals.
    """
    return _feature(3, signal)


def root_mean_square(signal: Sequence[float]) -> float:
    """Square root of the mean squared amplitude (Table II #5)."""
    return _feature(4, signal)


def maximum(signal: Sequence[float]) -> float:
    """Maximum signal value (Table II #6)."""
    return _feature(5, signal)


def minimum(signal: Sequence[float]) -> float:
    """Minimum signal value (Table II #7)."""
    return _feature(6, signal)


def zero_crossing_rate(signal: Sequence[float]) -> float:
    """Rate of sign changes per sample (Table II #8).

    A zero crossing is a transition between strictly positive and strictly
    negative consecutive samples (zeros break a run without counting as a
    crossing themselves).  Normalized by ``len - 1`` so the rate lies in
    [0, 1]; a single-sample signal has rate 0.
    """
    return _feature(7, signal)


def non_negative_count(signal: Sequence[float]) -> float:
    """Number of samples that are >= 0 (Table II #9)."""
    return _feature(8, signal)


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
