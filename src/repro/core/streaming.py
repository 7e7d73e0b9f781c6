"""Streaming truth discovery — the evolving-truth extension.

The batch algorithms (Algorithm 1/2) assume all data arrives before
aggregation.  Real MCS platforms ingest reports continuously and truths
drift (the paper cites Li et al.'s *On the Discovery of Evolving Truth*,
KDD 2015, as the dynamic member of the truth discovery family).  This
module provides an incremental engine with the same weight/truth duality:

* per-source cumulative error is maintained with **exponential decay**
  ``lambda`` — recent disagreement counts more than ancient history, so a
  source can redeem itself and a truth can drift;
* per-task truth state is a decayed weighted numerator/denominator pair,
  so each batch folds in at O(batch) cost with no reprocessing;
* source weights go through the same monotonically decreasing functional
  ``W`` as the batch algorithms (CRH's log weights by default);
* optionally, a :class:`~repro.core.types.Grouping` maps accounts to
  groups first, making this the *streaming Sybil-resistant framework*: a
  Sybil attacker's accounts share one error history and one vote per
  batch, exactly as in Algorithm 2.

The engine is deliberately one-pass per batch (no inner fixed-point): the
stream itself provides the iteration, which is the standard construction
for dynamic truth discovery.

Internally the state lives in flat numpy arrays indexed by interned
source/task ids — the streaming counterpart of the batch claim-matrix
engine (:mod:`repro.core.engine`).  Each ``observe`` call compacts the
batch into ``(source, task)`` vote cells with ``np.unique`` and folds
them in with the same ``np.bincount`` segment-sums the batch kernels
use; per-task claim statistics merge via Chan's parallel variance
update instead of per-claim Welford steps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import bound_violation
from repro.core.truth_discovery import (
    TruthDiscoveryResult,
    WeightFunction,
    crh_log_weights,
)
from repro.core.types import MAX_ABS_VALUE, AccountId, Grouping, Observation, TaskId, source_name
from repro.errors import DataValidationError
from repro.obs import get_metrics, get_tracer


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= needed (amortized doubling)."""
    if len(array) >= needed:
        return array
    out = np.zeros(max(needed, 2 * len(array), 8))
    out[: len(array)] = array
    return out


class StreamingTruthDiscovery:
    """Incremental weight/truth estimation over an observation stream.

    Parameters
    ----------
    decay:
        Exponential forgetting factor ``lambda`` in (0, 1].  Both the
        per-source error history and the per-task truth state are scaled
        by ``decay`` before each batch folds in.  ``1.0`` never forgets
        (static truths); smaller values track faster drift.
    weight_function:
        The monotonically decreasing functional mapping decayed errors to
        source weights.  Default: CRH's log weights.
    grouping:
        Optional account partition.  When given, error histories and
        votes are kept per *group*; per-batch, a group's claims for a
        task are averaged into one vote (the streaming Eq. 3, mean
        flavour).  Accounts outside the partition act as singletons.

    Examples
    --------
    >>> from repro.core.types import Observation
    >>> engine = StreamingTruthDiscovery(decay=0.9)
    >>> _ = engine.observe([Observation("a", "T1", 10.0, 0.0),
    ...                     Observation("b", "T1", 11.0, 1.0)])
    >>> 10.0 <= engine.truths["T1"] <= 11.0
    True
    """

    def __init__(
        self,
        decay: float = 0.95,
        weight_function: WeightFunction = crh_log_weights,
        grouping: Optional[Grouping] = None,
    ):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self._decay = decay
        self._weight_function = weight_function
        self._grouping = grouping
        # Ids are numbered in order of first appearance: a dict keeps its
        # keys in that order, so ``list(self._tasks)[code] == task``.
        # Task state: decayed weighted-average pair plus running claim
        # statistics (count/mean/m2) for distance normalization — the
        # streaming analogue of CRH's per-task spread.
        self._tasks: Dict[TaskId, int] = {}
        self._numerator = np.zeros(0)
        self._mass = np.zeros(0)
        self._stat_count = np.zeros(0)
        self._stat_mean = np.zeros(0)
        self._stat_m2 = np.zeros(0)
        # Source state: decayed cumulative error, keyed by interned source
        # name; each account's source code is looked up once.
        self._sources: Dict[str, int] = {}
        self._source_of_account: Dict[AccountId, int] = {}
        self._errors = np.zeros(0)
        self._sorted_names: List[str] = []
        self._source_order = np.zeros(0, dtype=np.intp)
        self._weights: Dict[str, float] = {}
        self._batches = 0

    # ------------------------------------------------------------------

    @property
    def truths(self) -> Dict[TaskId, float]:
        """Current truth estimate per task with any folded-in data."""
        n = len(self._tasks)
        mass = self._mass[:n]
        with np.errstate(invalid="ignore", divide="ignore"):
            estimates = self._numerator[:n] / mass
        return {
            tid: float(estimates[j])
            for j, tid in enumerate(self._tasks)
            if mass[j] > EPS
        }

    @property
    def weights(self) -> Dict[str, float]:
        """Current per-source weight (sources are groups if grouping given)."""
        return dict(self._weights)

    @property
    def batches_seen(self) -> int:
        """Number of ``observe`` calls folded in so far."""
        return self._batches

    def snapshot(self) -> TruthDiscoveryResult:
        """Freeze the current state as a batch-style result object."""
        return TruthDiscoveryResult(
            truths=self.truths,
            weights=self.weights,
            iterations=self._batches,
            converged=False,
        )

    # ------------------------------------------------------------------

    def _intern(self, batch: List[Observation]):
        """Map the batch to index arrays, numbering unseen ids in order."""
        grouping = self._grouping
        sources = self._sources
        source_of_account = self._source_of_account
        tasks = self._tasks
        src_idx, tsk_idx, values = [], [], []
        for obs in batch:
            si = source_of_account.get(obs.account_id)
            if si is None:
                name = source_name(grouping, obs.account_id)
                si = source_of_account[obs.account_id] = sources.setdefault(name, len(sources))
            ti = tasks.get(obs.task_id)
            if ti is None:
                ti = tasks[obs.task_id] = len(tasks)
            src_idx.append(si)
            tsk_idx.append(ti)
            values.append(obs.value)
        self._numerator = _grown(self._numerator, len(tasks))
        self._mass = _grown(self._mass, len(tasks))
        self._stat_count = _grown(self._stat_count, len(tasks))
        self._stat_mean = _grown(self._stat_mean, len(tasks))
        self._stat_m2 = _grown(self._stat_m2, len(tasks))
        self._errors = _grown(self._errors, len(sources))
        return (
            np.array(src_idx, dtype=np.intp),
            np.array(tsk_idx, dtype=np.intp),
            np.array(values, dtype=float),
        )

    def _task_spreads(self, n_tasks: int) -> np.ndarray:
        """Per-task claim standard deviation (1.0 until it is meaningful)."""
        counts = self._stat_count[:n_tasks]
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = self._stat_m2[:n_tasks] / counts
        usable = (counts >= 2) & (variance > EPS)
        return np.where(usable, np.sqrt(np.where(usable, variance, 1.0)), 1.0)

    def observe(self, observations: Iterable[Observation]) -> Dict[TaskId, float]:
        """Fold one batch into the state; returns the updated truths.

        Processing order per batch:

        1. decay all per-task truth states and per-source errors;
        2. score each source's claims against the *pre-batch* truths and
           update its decayed error, then its weight through ``W`` —
           the streaming counterpart of Eq. 1's weight estimation
           (claims for never-seen tasks incur no error — there was no
           truth to disagree with);
        3. fold each claim into its task's truth state, weighted by the
           submitting source's fresh weight — Eq. 2's weighted truth
           update, incrementalized; with a grouping, a group's claims
           for one task are first averaged into a single vote (the
           streaming mean-flavoured Eq. 3 data grouping of Algorithm 2).

        Raises :class:`~repro.errors.DataValidationError`, before any
        state changes, if a value is not finite or exceeds
        :data:`~repro.core.types.MAX_ABS_VALUE` in magnitude.
        """
        batch = list(observations)
        if not batch:
            return self.truths
        for obs in batch:
            if not abs(obs.value) <= MAX_ABS_VALUE:
                raise DataValidationError(
                    f"observation value for ({obs.account_id!r}, {obs.task_id!r}) "
                    f"{bound_violation(obs.value)}"
                )
        self._batches += 1

        n_tasks_pre = len(self._tasks)
        src_idx, tsk_idx, values = self._intern(batch)
        n_tasks = len(self._tasks)
        n_sources = len(self._sources)
        numerator = self._numerator[:n_tasks]
        mass = self._mass[:n_tasks]
        errors = self._errors[:n_sources]

        # 1. Decay (new ids hold zeros, so decaying the full span is safe).
        numerator *= self._decay
        mass *= self._decay
        errors *= self._decay

        # Compact the batch into (source, task) vote cells.  ``first_pos``
        # remembers where each cell first appeared in the batch — the
        # zero-weight nudge below depends on batch arrival order.
        keys = src_idx * n_tasks + tsk_idx
        cell_keys, first_pos, inverse, cell_sizes = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        cell_src, cell_tsk = np.divmod(cell_keys, n_tasks)
        cell_votes = np.bincount(inverse, weights=values) / cell_sizes

        # 2. Error update against pre-batch truths, then weights.  Only
        # tasks that existed before this batch *and* still carry weight
        # mass have a truth to disagree with.
        with np.errstate(invalid="ignore", divide="ignore"):
            pre_truths = numerator / mass
        scoreable = (cell_tsk < n_tasks_pre) & (mass[cell_tsk] > EPS)
        spreads = self._task_spreads(n_tasks)
        residual = cell_votes - np.where(scoreable, pre_truths[cell_tsk], 0.0)
        cell_errors = np.where(
            scoreable, residual * residual / spreads[cell_tsk] ** 2, 0.0
        )
        errors += np.bincount(cell_src, weights=cell_errors, minlength=n_sources)

        order, names = self._sorted_sources()
        weight_vector = self._weight_function(errors[order])
        self._weights = dict(zip(names, map(float, weight_vector)))

        # 3. Fold votes into truth states.  A zero-weight source still
        # nudges an *empty* task state so that some estimate exists;
        # established tasks ignore it.  Only the first-arriving cell of an
        # empty task gets the nudge — after it folds in, the task's mass
        # sits above the floor and later cells are treated normally.
        by_source = np.empty(n_sources)
        by_source[order] = weight_vector
        cell_weights = by_source[cell_src]
        empty_task = mass <= EPS
        first_claim = np.full(n_tasks, len(batch), dtype=np.intp)
        np.minimum.at(first_claim, cell_tsk, first_pos)
        nudge = (
            empty_task[cell_tsk]
            & (first_pos == first_claim[cell_tsk])
            & (cell_weights <= EPS)
        )
        cell_weights = np.where(nudge, EPS * 10, cell_weights)
        numerator += np.bincount(
            cell_tsk, weights=cell_weights * cell_votes, minlength=n_tasks
        )
        mass += np.bincount(cell_tsk, weights=cell_weights, minlength=n_tasks)

        self._merge_claim_stats(tsk_idx, values, n_tasks)

        # Per-batch telemetry: the decayed error mass tracks how much
        # recent disagreement the engine is carrying, the active-source
        # gauge how many (grouped) sources hold an error history.
        error_mass = float(errors.sum())
        metrics = get_metrics()
        metrics.counter("streaming.batches").inc()
        metrics.counter("streaming.observations").inc(len(batch))
        metrics.gauge("streaming.error_mass").set(error_mass)
        metrics.gauge("streaming.active_sources").set(n_sources)
        metrics.histogram("streaming.batch_size").observe(len(batch))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "streaming.batch",
                batch=self._batches,
                observations=len(batch),
                batch_sources=len(np.unique(cell_src)),
                active_sources=n_sources,
                error_mass=error_mass,
                tasks_tracked=n_tasks,
            )

        return self.truths

    def _sorted_sources(self) -> Tuple[np.ndarray, List[str]]:
        """Source codes and names in sorted-name order (cached between batches)."""
        sources = self._sources
        if len(self._sorted_names) != len(sources):
            self._sorted_names = sorted(sources)
            self._source_order = np.fromiter(
                map(sources.__getitem__, self._sorted_names), np.intp, len(sources)
            )
        return self._source_order, self._sorted_names

    def _merge_claim_stats(
        self, tsk_idx: np.ndarray, values: np.ndarray, n_tasks: int
    ) -> None:
        """Fold the batch's claims into the per-task running statistics.

        Chan's parallel variance update: the batch's per-task count, mean
        and squared deviation merge into the running (count, mean, m2)
        triple in one shot — algebraically identical to feeding the claims
        one at a time through Welford's recurrence.
        """
        batch_counts = np.bincount(tsk_idx, minlength=n_tasks)
        batch_sums = np.bincount(tsk_idx, weights=values, minlength=n_tasks)
        with np.errstate(invalid="ignore", divide="ignore"):
            batch_means = batch_sums / batch_counts
        deviation = values - batch_means[tsk_idx]
        batch_m2 = np.bincount(
            tsk_idx, weights=deviation * deviation, minlength=n_tasks
        )

        counts = self._stat_count[:n_tasks]
        means = self._stat_mean[:n_tasks]
        m2 = self._stat_m2[:n_tasks]
        totals = np.maximum(counts + batch_counts, 1)
        present = batch_counts > 0
        delta = np.where(present, batch_means - means, 0.0)
        means += np.where(present, delta * batch_counts / totals, 0.0)
        m2 += np.where(
            present, batch_m2 + delta * delta * counts * batch_counts / totals, 0.0
        )
        counts += batch_counts


def replay_dataset(
    engine: StreamingTruthDiscovery,
    observations: Iterable[Observation],
    batch_seconds: float = 60.0,
) -> Dict[TaskId, float]:
    """Feed a recorded observation list through the engine in time order.

    Observations are sorted by timestamp and cut into ``batch_seconds``
    windows — the natural way to replay a
    :class:`~repro.core.dataset.SensingDataset` as a stream.  Window
    ``w`` holds the timestamps ``t`` with ``floor((t - t0) /
    batch_seconds) == w``, ``t0`` the earliest; empty windows are
    skipped, so a gap between observations costs nothing.
    """
    if batch_seconds <= 0:
        raise DataValidationError(
            f"batch_seconds must be positive, got {batch_seconds}"
        )
    ordered = sorted(observations, key=lambda o: (o.timestamp, o.account_id))
    times = np.array([obs.timestamp for obs in ordered], dtype=float)
    windows = np.floor((times - times[:1]) / batch_seconds)
    bounds = [0, *(np.flatnonzero(windows[1:] != windows[:-1]) + 1).tolist(), len(ordered)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start:
            engine.observe(ordered[start:stop])
    return engine.truths
