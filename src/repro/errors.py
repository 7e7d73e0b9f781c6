"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at an API boundary.  Subclasses are
deliberately fine-grained: they distinguish *bad input data* (the caller's
fault) from *algorithmic failure to converge* (a property of the data) so
that experiment harnesses can react differently to each.
"""

from __future__ import annotations

#: Largest magnitude an ingested number may have: observation values and
#: timestamps, and the points handed to k-means.  Every algorithm squares
#: differences of these numbers (Eq. 1 distances, CRH spreads, Eq. 8 DTW
#: costs, k-means distances); at 1e100 the squares, summed over any
#: realistic number of claims or coordinates, stay far below float64's
#: ~1.8e308 limit.  ``SensingDataset``, ``StreamingTruthDiscovery.observe``,
#: ``KMeans.fit`` and ``sse_curve`` reject anything larger, and anything
#: non-finite.  ``repro.core.types`` re-exports it.
MAX_ABS_VALUE = 1e100

#: Largest magnitude a fingerprint sample may have, under which every
#: Table II feature is finite.  The highest power the features take is the
#: fourth moment: deviations from the mean reach 2e70, whose fourth powers
#: (1.6e281) summed over up to 1e27 samples stay below float64's ~1.8e308.
#: The spectral quantities are far smaller (magnitudes at most
#: ``samples * 1e70``, their squares and pairwise products).
#: ``FingerprintCapture`` and the feature pass (``repro.features``) reject
#: anything larger, and anything non-finite.
MAX_ABS_SAMPLE = 1e70


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DataValidationError(ReproError, ValueError):
    """Raised when input data violates a documented structural invariant.

    Examples: duplicate observations for one ``(account, task)`` pair, an
    observation referring to an unknown task, or an empty dataset handed to
    an algorithm that needs at least one observation.
    """


class PartitionError(ReproError, ValueError):
    """Raised when a grouping is not a valid partition of the accounts.

    A valid :class:`~repro.core.types.Grouping` must cover every account
    exactly once: groups are disjoint and their union is the full account
    set (Section IV-B of the paper).
    """


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative algorithm exceeds its iteration budget.

    Truth discovery (Algorithm 1/2) and k-means are guarded by a maximum
    iteration count; exceeding it with a strict convergence policy raises
    this error instead of silently returning a half-converged result.
    """


class FingerprintError(ReproError, ValueError):
    """Raised when device-fingerprint data is malformed.

    A fingerprint must contain the four sensor streams used by AG-FP
    (accelerometer magnitude and the three gyroscope axes), each with at
    least two samples so that spectral features are defined, and every
    sample finite and within :data:`MAX_ABS_SAMPLE`.
    """
