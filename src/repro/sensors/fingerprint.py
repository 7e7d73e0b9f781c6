"""Fingerprint capture: the platform-side record AG-FP consumes.

At sign-in the platform records ``T`` seconds of accelerometer and
gyroscope data (Section IV-C).  :func:`capture_fingerprint` simulates one
such session for a given device and packages the result as the four
streams AG-FP uses:

* the accelerometer *magnitude* ``|a(t)|`` — taking the norm makes the
  stream independent of device orientation, exactly as the paper argues;
* the three gyroscope axes ``w_x, w_y, w_z`` as separate streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.core.types import AccountId
from repro.errors import FingerprintError
from repro.features.extractor import capture_streams
from repro.sensors.device import MEMSDevice
from repro.sensors.streams import StationaryCaptureConfig, synthesize_stationary_motion


@dataclass(frozen=True)
class FingerprintCapture:
    """One account's device fingerprint ``F_i``.

    Attributes
    ----------
    account_id:
        The account that signed in (what the platform keys the capture by;
        the *device* behind it is exactly what AG-FP tries to infer).
    streams:
        The four named streams: ``accel_magnitude``, ``gyro_x``,
        ``gyro_y``, ``gyro_z``, each a 1-D float array of equal length,
        checked by :func:`repro.features.extractor.capture_streams`
        (finite samples within ``repro.errors.MAX_ABS_SAMPLE``).
    sample_rate:
        Samples per second of every stream.
    device_id:
        Ground-truth device identity.  Present only because this is a
        simulation — the grouping methods never read it; evaluation
        harnesses use it to score ARI.
    """

    account_id: AccountId
    streams: Mapping[str, np.ndarray]
    sample_rate: float
    device_id: str = ""

    def __post_init__(self) -> None:
        lengths = {len(stream) for stream in capture_streams(self.streams)}
        if len(lengths) != 1:
            raise FingerprintError(f"streams have unequal lengths: {sorted(lengths)}")

    @property
    def samples(self) -> int:
        """Number of samples per stream."""
        return len(next(iter(self.streams.values())))


def capture_fingerprint(
    account_id: AccountId,
    device: MEMSDevice,
    rng: np.random.Generator,
    config: StationaryCaptureConfig = StationaryCaptureConfig(),
) -> FingerprintCapture:
    """Simulate one sign-in fingerprint capture on ``device``.

    The hand pose and tremor are re-drawn per call — a Sybil attacker
    re-doing the capture when switching accounts (Section V-A) gets a
    different pose but the *same chip imperfections*, which is the signal
    AG-FP keys on.
    """
    true_accel, true_gyro = synthesize_stationary_motion(config, rng)
    measured_accel = device.measure_accel(true_accel, rng)
    measured_gyro = device.measure_gyro(true_gyro, rng)
    magnitude = np.sqrt((measured_accel**2).sum(axis=0))
    streams: Dict[str, np.ndarray] = {
        "accel_magnitude": magnitude,
        "gyro_x": measured_gyro[0],
        "gyro_y": measured_gyro[1],
        "gyro_z": measured_gyro[2],
    }
    return FingerprintCapture(
        account_id=account_id,
        streams=streams,
        sample_rate=config.sample_rate,
        device_id=device.device_id,
    )
