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

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._nputil import EPS
from repro.errors import FingerprintError
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



def stream_features(signal: Sequence[float]) -> np.ndarray:
    """The 20 Table II features (9 temporal + 11 spectral) of one stream."""
    return np.concatenate(
        [temporal_feature_vector(signal), spectral_feature_vector(signal)]
    )


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
        If a required stream is missing or too short for spectral
        features.
    """
    parts: List[np.ndarray] = []
    for name in STREAM_NAMES:
        if name not in streams:
            raise FingerprintError(f"fingerprint capture is missing stream {name!r}")
        signal = np.asarray(streams[name], dtype=float)
        if len(signal) < 2:
            raise FingerprintError(
                f"stream {name!r} has {len(signal)} samples; "
                "spectral features need at least 2"
            )
        parts.append(stream_features(signal))
    return np.concatenate(parts)


def feature_matrix(
    captures: Sequence[Mapping[str, Sequence[float]]],
) -> np.ndarray:
    """Stack raw capture features into an ``(n, 80)`` matrix."""
    if len(captures) == 0:
        raise FingerprintError("need at least one capture")
    return np.vstack([capture_features(capture) for capture in captures])


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
