"""Frequency-domain features (Table II, rows 10–20).

All eleven descriptors operate on the one-sided magnitude spectrum of the
signal (real FFT, DC bin dropped — MEMS fingerprints live in the shape of
the noise spectrum, and keeping DC would let the gravity offset dominate
every spectral moment).  Definitions follow Peeters' CUIDADO report and the
MIRtoolbox manual, the sources the paper extracts its features with.

Frequencies are expressed as normalized frequency in cycles/sample
(0 … 0.5); the features are therefore sample-rate-free, which is fine for
fingerprinting because every capture in a campaign shares one rate.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro._nputil import EPS


#: Rolloff concentration level (Table II row 17: "85% of the distribution").
ROLLOFF_FRACTION = 0.85

#: Brightness cut-off as a fraction of the Nyquist frequency.  MIRtoolbox
#: defaults to 1500 Hz at 44.1 kHz audio; for arbitrary-rate sensor streams
#: we use the same relative position in the band.
BRIGHTNESS_CUTOFF_FRACTION = 0.1

#: Most peak pairs whose roughness terms one array pass evaluates (64 KiB
#: per float64 temporary, so a batch adds no measurable peak memory).
_PAIR_CHUNK = 1 << 13


def magnitude_spectrum(signal: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided magnitude spectrum and its normalized frequency axis.

    Returns ``(frequencies, magnitudes)`` with the DC bin removed.  The
    transform runs along the last axis: a 1-D signal gives 1-D magnitudes,
    a ``(rows, samples)`` block one spectrum per row over the shared
    frequency axis.  Signals need at least two samples so at least one
    non-DC bin exists.
    """
    arr = np.asarray(signal, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(
            f"signal must be one-dimensional or a (rows, samples) block, got shape {arr.shape}"
        )
    if arr.shape[-1] < 2:
        raise ValueError("spectral features need at least 2 samples")
    spectrum = np.abs(np.fft.rfft(arr, axis=-1))
    freqs = np.fft.rfftfreq(arr.shape[-1])
    return freqs[1:], spectrum[..., 1:]


def _block_features(freqs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """The eleven features of every row of a ``(rows, bins)`` spectrum block.

    ``freqs`` is the shared, ascending frequency axis and ``mags`` holds
    non-negative magnitudes.  Every reduction runs along a row's contiguous
    bins, so each row gets the bytes it would get alone.  Rows whose
    magnitude (or power) total is below ``EPS`` take the degenerate value 0;
    they divide by 1 instead, and that quotient is discarded.
    """
    rows, bins = mags.shape
    total = mags.sum(axis=1)
    empty = total < EPS
    safe_total = np.where(empty, 1.0, total)
    # Table II #10, #11: centroid and spread, the first two moments of the
    # magnitude distribution.
    weights = mags / safe_total[:, None]
    centroid = np.where(empty, 0.0, (freqs * weights).sum(axis=1))
    spread = np.where(
        empty, 0.0, np.sqrt(((freqs - centroid[:, None]) ** 2 * weights).sum(axis=1))
    )
    # Table II #12, #13: standardized third and fourth moments; 0 when the
    # spread vanishes.
    narrow = spread < EPS
    z = (freqs - centroid[:, None]) / np.where(narrow, 1.0, spread)[:, None]
    skewness = np.where(narrow, 0.0, (z**3 * weights).sum(axis=1))
    kurtosis = np.where(narrow, 0.0, (z**4 * weights).sum(axis=1))
    # Table II #14: geometric over arithmetic mean, 1 for white noise and
    # towards 0 for pure tones.
    clipped = np.maximum(mags, EPS)
    geometric = np.exp(np.log(clipped).mean(axis=1))
    arithmetic = clipped.mean(axis=1)
    dim = arithmetic <= EPS
    flatness = np.where(dim, 0.0, geometric / np.where(dim, 1.0, arithmetic))
    # Table II #15: Jensen's irregularity, sum (m_k - m_{k+1})^2 / sum m_k^2.
    power = mags**2
    energy = power.sum(axis=1)
    quiet = energy < EPS
    safe_energy = np.where(quiet, 1.0, energy)
    if bins < 2:
        irregularity = entropy = np.zeros(rows)
    else:
        steps = ((mags[:, :-1] - mags[:, 1:]) ** 2).sum(axis=1)
        irregularity = np.where(quiet, 0.0, steps / safe_energy)
        # Table II #16: Shannon entropy of the normalized power spectrum,
        # divided by log(bins) to lie in [0, 1].
        p = np.maximum(power / safe_energy[:, None], EPS)
        entropy = np.where(quiet, 0.0, -(p * np.log(p)).sum(axis=1) / np.log(bins))
    # Table II #17: the first bin where the running magnitude total reaches
    # 85% of the whole (a count, since the running total never decreases).
    below = np.cumsum(mags, axis=1) < (ROLLOFF_FRACTION * total)[:, None]
    rolloff_bin = np.minimum(below.sum(axis=1), bins - 1)
    rolloff = np.where(empty, 0.0, freqs[rolloff_bin])
    # Table II #18: the share of magnitude at or above the cut-off, whose
    # bins are the tail of the ascending axis.
    cutoff_bin = int(np.searchsorted(freqs, BRIGHTNESS_CUTOFF_FRACTION * 0.5))
    brightness = np.where(empty, 0.0, mags[:, cutoff_bin:].sum(axis=1) / safe_total)
    return np.column_stack(
        [
            centroid,
            spread,
            skewness,
            kurtosis,
            flatness,
            irregularity,
            entropy,
            rolloff,
            brightness,
            # Table II #19: root mean square of the magnitudes.
            np.sqrt(power.mean(axis=1)),
            _roughness(freqs, mags),
        ]
    )


def _peak_mask(mags: np.ndarray) -> np.ndarray:
    """Which inner bins are local maxima, along the last axis.

    Bin ``k`` (never the first or last) is a peak when it rises strictly
    above its left neighbour and is at least its right one, so a plateau
    counts once, at its left end.  Entry ``k - 1`` of the mask is bin ``k``.
    """
    inner = mags[..., 1:-1]
    return (inner > mags[..., :-2]) & (inner >= mags[..., 2:])


def _roughness(freqs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Table II #20 of every row of a spectrum block; see :func:`spectral_roughness`.

    Every row's peak pairs ``i < j`` are laid end to end in row order, each
    row's in ``np.triu_indices`` order, and their terms are evaluated in
    passes of at most ``_PAIR_CHUNK`` pairs.  A row's total is the running
    ``cumsum`` of its own terms, the sequential left-to-right sum
    (``ndarray.sum`` would sum pairwise and round differently).
    """
    rows = len(mags)
    peak_rows, peak_bins = np.nonzero(_peak_mask(mags))
    peak_freqs = freqs[1:-1][peak_bins]
    peak_mags = mags[:, 1:-1][peak_rows, peak_bins]
    peaks = np.bincount(peak_rows, minlength=rows)
    first_peak = np.cumsum(peaks) - peaks
    # Peak g pairs with every later peak of its row.
    partners = peaks[peak_rows] - 1 - (np.arange(len(peak_rows)) - first_peak[peak_rows])
    pairs = peaks * (peaks - 1) // 2
    b1, b2 = 3.5, 5.75
    s1, s2, x_star = 0.0207, 18.96, 0.24
    # Rescale normalized frequency to a pseudo-Hz axis so the Plomp-Levelt
    # constants (fitted in Hz) operate in a sensible range.
    scale = 1000.0
    pairs_through = np.cumsum(pairs)
    roughness = np.zeros(rows)
    start = 0
    while start < rows:
        done = pairs_through[start - 1] if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(pairs_through, done + _PAIR_CHUNK, side="right")),
        )
        lo, hi = first_peak[start], first_peak[stop - 1] + peaks[stop - 1]
        counts = partners[lo:hi]
        i = np.repeat(np.arange(lo, hi), counts)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        f1, f2 = peak_freqs[i], peak_freqs[j]
        m1, m2 = peak_mags[i], peak_mags[j]
        fmin = np.minimum(f1, f2) * scale
        df = np.abs(f1 - f2) * scale
        s = x_star / (s1 * fmin + s2)
        terms = m1 * m2 * (np.exp(-b1 * s * df) - np.exp(-b2 * s * df))
        end = 0
        for row in range(start, stop):
            if pairs[row]:
                begin, end = end, end + pairs[row]
                roughness[row] = np.cumsum(terms[begin:end])[-1] / pairs[row]
        start = stop
    return roughness


def spectral_feature_vector(signal: Sequence[float]) -> np.ndarray:
    """All eleven spectral features of Table II, in registry order.

    A 1-D signal gives shape ``(11,)``; a ``(rows, samples)`` block gives
    ``(rows, 11)``, row ``r`` equal byte for byte to the vector of
    ``signal[r]`` alone.
    """
    freqs, mags = magnitude_spectrum(signal)
    if mags.ndim == 1:
        return _block_features(freqs, mags[None])[0]
    return _block_features(freqs, mags)


def _feature(position: int, freqs: np.ndarray, mags: np.ndarray) -> float:
    freqs = np.asarray(freqs, dtype=float)
    mags = np.asarray(mags, dtype=float)
    return float(_block_features(freqs, mags[None])[0, position])


def spectral_centroid(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Center of mass of the spectral power distribution (Table II #10)."""
    return _feature(0, freqs, mags)


def spectral_spread(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Dispersion of the spectrum around its centroid (Table II #11)."""
    return _feature(1, freqs, mags)


def spectral_skewness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Coefficient of skewness of the spectrum (Table II #12)."""
    return _feature(2, freqs, mags)


def spectral_kurtosis(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Spectral flatness/spikiness relative to a normal shape (Table II #13)."""
    return _feature(3, freqs, mags)


def spectral_flatness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Geometric over arithmetic mean of the spectrum (Table II #14).

    1 for white noise (energy evenly spread), → 0 for pure tones.
    """
    return _feature(4, freqs, mags)


def spectral_irregularity(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Variation between successive spectral amplitudes (Table II #15).

    Jensen's definition: ``sum (m_k - m_{k+1})^2 / sum m_k^2``.
    """
    return _feature(5, freqs, mags)


def spectral_entropy(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Shannon entropy of the normalized power spectrum (Table II #16).

    Normalized by ``log(n_bins)`` to lie in [0, 1].
    """
    return _feature(6, freqs, mags)


def spectral_rolloff(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Frequency below which 85% of magnitude is concentrated (Table II #17)."""
    return _feature(7, freqs, mags)


def spectral_brightness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Fraction of spectral energy above the cut-off frequency (Table II #18)."""
    return _feature(8, freqs, mags)


def spectral_rms(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Root mean square of the spectral magnitudes (Table II #19)."""
    return _feature(9, freqs, mags)


def spectral_roughness(freqs: np.ndarray, mags: np.ndarray) -> float:
    """Average pairwise dissonance between spectral peaks (Table II #20).

    Implements the Plomp–Levelt estimate used by MIRtoolbox: pick local
    maxima of the magnitude spectrum, evaluate the dissonance curve

    ``d(f1, f2, m1, m2) = m1 * m2 * (exp(-b1 * s * df) - exp(-b2 * s * df))``

    with ``s = x* / (s1 * fmin + s2)`` for every peak pair ``i < j``, and
    average, summing the pairs in ``np.triu_indices`` order from left to
    right.  A peak is a bin above its left neighbour and at least its right
    one (a plateau counts once, at its left end; never the first or last
    bin).  Frequencies are normalized; the constants are the classic
    Sethares fit.  Returns 0 when fewer than two peaks exist.
    """
    return _feature(10, freqs, mags)


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

