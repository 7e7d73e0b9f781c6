"""Fingerprint feature pipeline: sensor streams → fixed-length vectors.

AG-FP turns each account's fingerprint capture — four streams
``{|a|, w_x, w_y, w_z}`` (accelerometer magnitude to cancel orientation,
and the three raw gyroscope axes; Section IV-C) — into a numeric vector:
20 features (Table II) per stream, 80 dimensions total.

Because the raw features live on wildly different scales (a count next to
an entropy), :class:`FeatureExtractor` z-normalizes each dimension across
the capture population before clustering, mirroring the standard practice
of the device-fingerprinting literature.  Constant dimensions are left at
zero rather than divided by a zero spread.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._nputil import EPS
from repro.errors import MAX_ABS_SAMPLE, FingerprintError
from repro.features.spectral import SPECTRAL_FEATURES, spectral_feature_vector
from repro.features.temporal import TEMPORAL_FEATURES, temporal_feature_vector

#: The four sensor streams AG-FP extracts from a capture, in order.
STREAM_NAMES: Tuple[str, ...] = ("accel_magnitude", "gyro_x", "gyro_y", "gyro_z")

#: Fully qualified feature names, ``<stream>.<feature>``, 80 in total.
FEATURE_NAMES: Tuple[str, ...] = tuple(
    f"{stream}.{feature}"
    for stream in STREAM_NAMES
    for feature in list(TEMPORAL_FEATURES) + list(SPECTRAL_FEATURES)
)


#: Most samples stacked into one feature block (512 KiB of float64), so a
#: large population's temporaries stay bounded.
_BLOCK_SAMPLES = 1 << 16


def _check_samples(name: str, signal: np.ndarray) -> None:
    if not np.isfinite(signal).all():
        raise FingerprintError(f"stream {name!r} has non-finite samples")
    if len(signal) and np.abs(signal).max() > MAX_ABS_SAMPLE:
        raise FingerprintError(
            f"stream {name!r} has samples beyond +/-{MAX_ABS_SAMPLE:g}"
        )


def _block_features(block: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [temporal_feature_vector(block), spectral_feature_vector(block)], axis=1
    )


def stream_features(signal: Sequence[float]) -> np.ndarray:
    """The 20 Table II features (9 temporal + 11 spectral) of one stream.

    A 1-D signal gives shape ``(20,)``; a ``(rows, samples)`` block of
    equal-length streams gives ``(rows, 20)``, row ``r`` equal byte for byte
    to ``stream_features(signal[r])``.

    Raises
    ------
    FingerprintError
        If a sample is non-finite or beyond ``MAX_ABS_SAMPLE``.
    ValueError
        If the signal is not 1-D or 2-D or has fewer than 2 samples.
    """
    arr = np.asarray(signal, dtype=float)
    _check_samples("signal", arr.ravel())
    if arr.ndim == 1:
        return _block_features(arr[None])[0]
    if arr.ndim != 2:
        raise ValueError(
            f"signal must be one-dimensional or a (rows, samples) block, got shape {arr.shape}"
        )
    return _block_features(arr)


def capture_streams(streams: Mapping[str, Sequence[float]]) -> List[np.ndarray]:
    """The four :data:`STREAM_NAMES` streams of a capture, checked, as float arrays.

    Extra keys are ignored.

    Raises
    ------
    FingerprintError
        If a required stream is missing, is not 1-D, has fewer than 2
        samples, or has a non-finite sample or one beyond
        :data:`repro.errors.MAX_ABS_SAMPLE`.
    """
    signals: List[np.ndarray] = []
    for name in STREAM_NAMES:
        if name not in streams:
            raise FingerprintError(f"fingerprint capture is missing stream {name!r}")
        signal = np.asarray(streams[name], dtype=float)
        if signal.ndim != 1:
            raise FingerprintError(
                f"stream {name!r} must be one-dimensional, got shape {signal.shape}"
            )
        if len(signal) < 2:
            raise FingerprintError(
                f"stream {name!r} has {len(signal)} samples; "
                "spectral features need at least 2"
            )
        _check_samples(name, signal)
        signals.append(signal)
    return signals


def capture_features(streams: Mapping[str, Sequence[float]]) -> np.ndarray:
    """The 80-dimensional raw feature vector of one fingerprint capture.

    Parameters
    ----------
    streams:
        Mapping containing the four :data:`STREAM_NAMES` entries; extra
        keys are ignored.

    Raises
    ------
    FingerprintError
        As :func:`capture_streams`.
    """
    return feature_matrix([streams])[0]


def feature_matrix(
    captures: Sequence[Mapping[str, Sequence[float]]],
) -> np.ndarray:
    """Stack raw capture features into an ``(n, 80)`` matrix.

    Every stream of every capture becomes one row of a ``(rows, samples)``
    block, one block per stream length (split at ``_BLOCK_SAMPLES``), and
    the 20 features run once per block.  Each capture's row is the bytes
    :func:`capture_features` gives it alone, whatever else is in the batch.
    """
    if len(captures) == 0:
        raise FingerprintError("need at least one capture")
    signals = [signal for capture in captures for signal in capture_streams(capture)]
    by_length: Dict[int, List[int]] = {}
    for row, signal in enumerate(signals):
        by_length.setdefault(len(signal), []).append(row)
    features = np.empty((len(signals), len(TEMPORAL_FEATURES) + len(SPECTRAL_FEATURES)))
    for length, rows in by_length.items():
        step = max(1, _BLOCK_SAMPLES // length)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            features[chunk] = _block_features(np.stack([signals[r] for r in chunk]))
    return features.reshape(len(captures), len(FEATURE_NAMES))


class FeatureExtractor:
    """Population-normalized feature extraction for AG-FP.

    Usage::

        extractor = FeatureExtractor()
        vectors = extractor.fit_transform(captures)   # (n, 80), z-scored

    The z-normalization statistics are learned from the fitted population
    and reused by :meth:`transform`, so new captures can be projected into
    the same space (e.g. for incremental grouping).
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, captures: Sequence[Mapping[str, Sequence[float]]]) -> "FeatureExtractor":
        """Learn per-dimension mean and spread from a capture population."""
        self._fit_raw(feature_matrix(captures))
        return self

    def _fit_raw(self, raw: np.ndarray) -> None:
        self.mean_ = raw.mean(axis=0)
        spread = raw.std(axis=0)
        # A constant dimension carries no information; mapping it to 0
        # (instead of dividing by ~0) keeps k-means geometry sane.
        self.scale_ = np.where(spread < EPS, 1.0, spread)

    def transform(
        self, captures: Sequence[Mapping[str, Sequence[float]]]
    ) -> np.ndarray:
        """Project captures into the fitted, z-normalized feature space."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("FeatureExtractor must be fitted before transform")
        raw = feature_matrix(captures)
        return (raw - self.mean_) / self.scale_

    def fit_transform(
        self, captures: Sequence[Mapping[str, Sequence[float]]]
    ) -> np.ndarray:
        """Fit on the population and return its normalized features.

        Equal to ``fit(captures).transform(captures)``, from one feature
        pass instead of two.
        """
        raw = feature_matrix(captures)
        self._fit_raw(raw)
        return (raw - self.mean_) / self.scale_
