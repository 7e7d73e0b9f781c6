"""The shared weight/truth convergence loop (Algorithm 1's skeleton).

Batch truth discovery (Algorithm 1), the Sybil-resistant framework's
group-level iteration (Algorithm 2 lines 7–15), and the weighted
baselines all alternate the same two phases until the truths stop
moving:

1. **weight estimation** — score each row by its aggregate distance
   from the current truths (Eq. 1) and map it through a monotonically
   decreasing functional ``W``;
2. **truth estimation** — re-estimate each column's truth as the
   weighted average (or weighted median) of its claims (Eq. 2).

:func:`run_convergence_loop` is that loop, once, over a compiled
:class:`~repro.core.engine.matrix.ClaimMatrix` — every iteration is two
segment-sum kernel calls, and the per-iteration :mod:`repro.obs`
telemetry (truth-delta / weight-entropy events, run counters, span
attributes) is emitted from here so all callers report identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.engine.kernels import (
    segment_row_distances,
    segment_weighted_medians,
    segment_weighted_truths,
)
from repro.core.engine.matrix import ClaimMatrix
from repro.errors import ConvergenceError
from repro.obs import get_metrics, get_tracer, weight_entropy

#: A weight functional maps the vector of per-row aggregate distances to
#: a vector of non-negative row weights.  It must be monotonically
#: decreasing: a larger distance never yields a larger weight.
WeightFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConvergencePolicy:
    """When to stop the weight/truth iteration.

    The paper notes the criterion is application-specific (CRH uses a fixed
    iteration count).  We stop when the largest truth change over one
    iteration drops below ``tolerance``, or after ``max_iterations``.

    Parameters
    ----------
    max_iterations:
        Hard iteration budget.
    tolerance:
        Maximum absolute truth change below which the loop is converged.
        It is in the data's units, so the stop rule depends on the data's
        scale: claims scaled by ``c`` stop as if the tolerance were
        ``tolerance / c``, and ``truths(3x + 7)`` can differ from
        ``3 * truths(x) + 7`` by about the tolerance.  With
        ``tolerance=0`` the loop runs exactly ``max_iterations`` rounds
        and the truths are affine-equivariant.
    strict:
        If true, hitting the budget without meeting ``tolerance`` raises
        :class:`~repro.errors.ConvergenceError` instead of returning the
        last iterate.
    """

    max_iterations: int = 100
    tolerance: float = 1e-6
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class EngineResult:
    """Raw output of the convergence loop, in matrix coordinates.

    Attributes
    ----------
    truths:
        Final truth estimate per column (``NaN`` where no claims exist).
    weights:
        Final weight per row.
    iterations, converged:
        Convergence diagnostics.
    history:
        Truth vector over the answered columns after each iteration.
    """

    truths: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool
    history: Tuple[Tuple[float, ...], ...]


def run_convergence_loop(
    matrix: ClaimMatrix,
    *,
    weight_function: WeightFunction,
    convergence: ConvergencePolicy,
    initial_truths: np.ndarray,
    normalize: bool = True,
    truth_estimator: str = "mean",
    name: str = "td",
    span=None,
) -> EngineResult:
    """Iterate weight and truth estimation over the claim matrix.

    Parameters
    ----------
    matrix:
        The compiled claims (rows = sources, columns = tasks).
    weight_function:
        The decreasing functional ``W`` of Eq. 1, applied to the per-row
        distance vector each iteration.
    convergence:
        Stopping policy.  With ``strict`` set, budget exhaustion raises
        :class:`~repro.errors.ConvergenceError` (after recording the
        ``convergence_error`` stop reason on ``span``).
    initial_truths:
        Iteration-0 truth per column (``NaN`` for claim-less columns).
    normalize:
        Divide each claim's squared deviation by its column's claim
        spread before summing (CRH behaviour).
    truth_estimator:
        ``"mean"`` (Eq. 2's weighted average) or ``"median"`` (the robust
        weighted-median variant).
    name, span:
        Telemetry wiring: ``name`` (``"td"``, ``"framework"``, ``"gtm"``,
        ``"catd"``) names the per-iteration ``{name}.iteration`` event,
        the ``{name}.runs`` and ``{name}.iterations`` counters and the
        subject of the strict-mode error; ``span`` is an optional open
        span that receives ``iterations`` and ``stop_reason`` attributes.
    """
    # Claims in content order: per-column sums then do not depend on the
    # row numbering, and per-row sums still run in column order.
    values, row_idx, col_idx = matrix.content_claims()
    spreads = matrix.spreads if normalize else None
    update = (
        segment_weighted_truths
        if truth_estimator == "mean"
        else segment_weighted_medians
    )
    answered = matrix.answered_cols
    any_answered = bool(answered.any())
    truths = np.asarray(initial_truths, dtype=float).copy()

    tracer = get_tracer()
    history: List[Tuple[float, ...]] = []
    converged = False
    iterations = 0
    weights = np.ones(matrix.n_rows)
    for iterations in range(1, convergence.max_iterations + 1):
        distances = segment_row_distances(
            values, row_idx, col_idx, truths, matrix.n_rows, spreads
        )
        weights = weight_function(distances)
        new_truths = update(
            values, col_idx, weights[row_idx], matrix.n_cols, truths
        )
        delta = (
            float(np.max(np.abs(new_truths[answered] - truths[answered])))
            if any_answered
            else 0.0
        )
        truths = new_truths
        history.append(tuple(truths[answered]))
        if tracer.enabled:
            tracer.event(
                f"{name}.iteration",
                iteration=iterations,
                truth_delta=delta,
                weight_entropy=weight_entropy(weights),
            )
        if delta < convergence.tolerance:
            converged = True
            break

    stop_reason = "converged" if converged else "max_iterations"
    metrics = get_metrics()
    metrics.counter(f"{name}.runs").inc()
    metrics.counter(f"{name}.iterations").inc(iterations)
    if not converged and convergence.strict:
        stop_reason = "convergence_error"
        if span is not None:
            span.set("iterations", iterations).set("stop_reason", stop_reason)
        raise ConvergenceError(
            f"{name} did not converge in "
            f"{convergence.max_iterations} iterations"
        )
    if span is not None:
        span.set("iterations", iterations).set("stop_reason", stop_reason)
    return EngineResult(
        truths=truths,
        weights=weights,
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def initial_truths_eq5(
    values: np.ndarray,
    col_idx: np.ndarray,
    initial_weights: np.ndarray,
    n_cols: int,
) -> np.ndarray:
    """Eq. 5: Eq. 4-weighted group average, falling back to the plain mean.

    One masked segment-sum: tasks whose Eq. 4 weight mass is above the
    numerical floor get the weighted average of their grouped data;
    degenerate tasks (every claimant in one group, so Eq. 4 gives weight
    zero and Eq. 5 is 0/0) fall back to the unweighted mean of the
    grouped values.  Claim-less columns stay ``NaN``.
    """
    counts = np.bincount(col_idx, minlength=n_cols)
    mass = np.bincount(col_idx, weights=initial_weights, minlength=n_cols)
    weighted = np.bincount(
        col_idx, weights=initial_weights * values, minlength=n_cols
    )
    sums = np.bincount(col_idx, weights=values, minlength=n_cols)
    with np.errstate(invalid="ignore", divide="ignore"):
        eq5 = weighted / mass
        plain = sums / counts
    truths = np.where(mass > EPS, eq5, plain)
    return np.where(counts > 0, truths, np.nan)
