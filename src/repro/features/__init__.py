"""Sensor-stream feature extraction (Table II of the paper).

AG-FP characterizes each of a device's four sensor streams
(``|a|, w_x, w_y, w_z``) with 9 temporal and 11 spectral features — the
descriptors of Das et al. (NDSS 2016) and Peeters' CUIDADO feature set,
which the paper extracts with MIRtoolbox.  Here they are implemented
directly on numpy arrays:

* :mod:`repro.features.temporal` — mean, std, skewness, kurtosis, RMS,
  max, min, zero-crossing rate, non-negative count;
* :mod:`repro.features.spectral` — centroid, spread, skewness, kurtosis,
  flatness, irregularity, entropy, rolloff, brightness, RMS, roughness;
* :mod:`repro.features.extractor` — the pipeline that turns a fingerprint
  capture into one fixed-length feature vector (4 streams × 20 features,
  z-normalized across a population).

The feature vector functions work along the last axis, so a
``(rows, samples)`` block of equal-length streams is one pass (one
``rfft(axis=1)``); :func:`feature_matrix` stacks a batch's streams into
such blocks.
"""

from repro.features.extractor import (
    FEATURE_NAMES,
    FeatureExtractor,
    capture_features,
    capture_streams,
    feature_matrix,
    stream_features,
)
from repro.features.spectral import SPECTRAL_FEATURES, spectral_feature_vector
from repro.features.temporal import TEMPORAL_FEATURES, temporal_feature_vector

__all__ = [
    "FEATURE_NAMES",
    "FeatureExtractor",
    "SPECTRAL_FEATURES",
    "TEMPORAL_FEATURES",
    "capture_features",
    "capture_streams",
    "feature_matrix",
    "spectral_feature_vector",
    "stream_features",
    "temporal_feature_vector",
]
