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
engine (:mod:`repro.core.engine`).  Each batch is compacted into
``(source, task)`` vote cells with ``np.unique`` and folded in with the
same ``np.bincount`` segment-sums the batch kernels use; per-task claim
statistics merge via Chan's parallel variance update instead of
per-claim Welford steps.  ``observe`` and :func:`replay_dataset` share
that one fold: a replay sorts, validates and interns the whole recorded
stream once, then folds each time window from slices of its arrays.
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
        """Number of batches folded in so far: ``observe`` calls and replay windows."""
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

    def _intern(
        self, accounts: List[AccountId], tasks: List[TaskId]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Source and task codes of the claim columns.

        Unseen ids are numbered in order of first appearance, and the
        state arrays grow to hold them.
        """
        grouping = self._grouping
        sources = self._sources
        source_of_account = self._source_of_account
        for account in dict.fromkeys(accounts):
            if account not in source_of_account:
                name = source_name(grouping, account)
                source_of_account[account] = sources.setdefault(name, len(sources))
        task_codes = self._tasks
        for task in dict.fromkeys(tasks):
            task_codes.setdefault(task, len(task_codes))
        self._numerator = _grown(self._numerator, len(task_codes))
        self._mass = _grown(self._mass, len(task_codes))
        self._stat_count = _grown(self._stat_count, len(task_codes))
        self._stat_mean = _grown(self._stat_mean, len(task_codes))
        self._stat_m2 = _grown(self._stat_m2, len(task_codes))
        self._errors = _grown(self._errors, len(sources))
        return (
            np.fromiter(map(source_of_account.__getitem__, accounts), np.intp, len(accounts)),
            np.fromiter(map(task_codes.__getitem__, tasks), np.intp, len(tasks)),
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
        values = np.array([obs.value for obs in batch], dtype=float)
        bad = _first_out_of_bound(values)
        if bad >= 0:
            raise _bound_error(batch[bad], "value")
        n_tasks_pre = len(self._tasks)
        src_idx, tsk_idx = self._intern(
            [obs.account_id for obs in batch], [obs.task_id for obs in batch]
        )
        order, names = self._sorted_sources()
        weight_vector = self._fold(
            src_idx, tsk_idx, values,
            n_tasks_pre, len(self._tasks), len(self._sources), order,
        )
        self._weights = dict(zip(names, map(float, weight_vector)))
        return self.truths

    def _fold(
        self,
        src_idx: np.ndarray,
        tsk_idx: np.ndarray,
        values: np.ndarray,
        n_tasks_pre: int,
        n_tasks: int,
        n_sources: int,
        order: np.ndarray,
    ) -> np.ndarray:
        """Fold one interned batch into the state (steps 1-3 of :meth:`observe`).

        The batch sees the first ``n_tasks`` tasks and ``n_sources``
        sources, of which ``n_tasks_pre`` tasks existed before it;
        ``order`` lists those sources' codes in sorted-name order.
        Returns their weights in that order.
        """
        self._batches += 1
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

        weight_vector = self._weight_function(errors[order])

        # 3. Fold votes into truth states.  A zero-weight source still
        # nudges an *empty* task state so that some estimate exists;
        # established tasks ignore it.  Only the first-arriving cell of an
        # empty task gets the nudge — after it folds in, the task's mass
        # sits above the floor and later cells are treated normally.
        by_source = np.empty(n_sources)
        by_source[order] = weight_vector
        cell_weights = by_source[cell_src]
        empty_task = mass <= EPS
        first_claim = np.full(n_tasks, len(values), dtype=np.intp)
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
        metrics.counter("streaming.observations").inc(len(values))
        metrics.gauge("streaming.error_mass").set(error_mass)
        metrics.gauge("streaming.active_sources").set(n_sources)
        metrics.histogram("streaming.batch_size").observe(len(values))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "streaming.batch",
                batch=self._batches,
                observations=len(values),
                batch_sources=len(np.unique(cell_src)),
                active_sources=n_sources,
                error_mass=error_mass,
                tasks_tracked=n_tasks,
            )
        return weight_vector

    def _fold_windows(
        self, batch: List[Observation], values: np.ndarray, stops: np.ndarray
    ) -> None:
        """Fold time-ordered claims in windows, window ``w`` ending at
        ``stops[w]``: intern once, then one :meth:`_fold` per window.

        Codes are numbered in order of first appearance, so the tasks and
        sources a window sees are those with codes below the prefix max of
        the codes up to its end; each fold gets exactly those slices.
        """
        n_tasks_before, n_sources_before = len(self._tasks), len(self._sources)
        src_idx, tsk_idx = self._intern(
            [obs.account_id for obs in batch], [obs.task_id for obs in batch]
        )
        last = stops - 1
        task_counts = np.maximum(np.maximum.accumulate(tsk_idx)[last] + 1, n_tasks_before)
        source_counts = np.maximum(
            np.maximum.accumulate(src_idx)[last] + 1, n_sources_before
        )
        order, names = self._sorted_sources()
        start, n_tasks_pre = 0, n_tasks_before
        for stop, n_tasks, n_sources in zip(
            stops.tolist(), task_counts.tolist(), source_counts.tolist()
        ):
            seen = order if n_sources == len(order) else order[order < n_sources]
            weight_vector = self._fold(
                src_idx[start:stop], tsk_idx[start:stop], values[start:stop],
                n_tasks_pre, n_tasks, n_sources, seen,
            )
            start, n_tasks_pre = stop, n_tasks
        self._weights = dict(zip(names, map(float, weight_vector)))

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

    Observations are ordered by timestamp, then account, then input
    order, and cut into ``batch_seconds`` windows — the natural way to
    replay a :class:`~repro.core.dataset.SensingDataset` as a stream.
    Window ``w`` holds the timestamps ``t`` with ``floor((t - t0) /
    batch_seconds) == w``, ``t0`` the earliest; empty windows are
    skipped, so a gap between observations costs nothing.  Each window
    folds in exactly as one :meth:`StreamingTruthDiscovery.observe` call
    on it would.

    Raises :class:`~repro.errors.DataValidationError` before any window
    folds in if a timestamp is not finite or exceeds
    :data:`~repro.core.types.MAX_ABS_VALUE`.  An out-of-bound value
    raises the error ``observe`` raises for it, after every window
    before the one that holds it has folded in.

    The stream is sorted, validated and interned once; the windows then
    fold in from slices of its code and value arrays.
    """
    if batch_seconds <= 0:
        raise DataValidationError(
            f"batch_seconds must be positive, got {batch_seconds}"
        )
    batch = observations if isinstance(observations, list) else list(observations)
    if not batch:
        return engine.truths
    times = np.array([obs.timestamp for obs in batch], dtype=float)
    bad = _first_out_of_bound(times)
    if bad >= 0:
        raise _bound_error(batch[bad], "timestamp")
    order = _time_order(batch, times)
    if order is not None:
        batch = list(map(batch.__getitem__, order.tolist()))
        times = times[order]
    values = np.array([obs.value for obs in batch], dtype=float)
    windows = np.floor((times - times[0]) / batch_seconds)
    stops = np.append(np.flatnonzero(windows[1:] != windows[:-1]) + 1, len(batch))
    bad = _first_out_of_bound(values)
    if bad < 0:
        engine._fold_windows(batch, values, stops)
        return engine.truths
    stops = stops[stops <= bad]
    if len(stops):
        engine._fold_windows(batch[: stops[-1]], values, stops)
    raise _bound_error(batch[bad], "value")


def _first_out_of_bound(numbers: np.ndarray) -> int:
    """Index of the first entry failing ``abs(x) <= MAX_ABS_VALUE``, or -1."""
    bad = ~(np.abs(numbers) <= MAX_ABS_VALUE)
    return int(bad.argmax()) if bad.any() else -1


def _bound_error(obs: Observation, field: str) -> DataValidationError:
    """The error for an observation whose ``field`` failed the bound check."""
    return DataValidationError(
        f"observation {field} for ({obs.account_id!r}, {obs.task_id!r}) "
        f"{bound_violation(getattr(obs, field))}"
    )


def _time_order(batch: List[Observation], times: np.ndarray) -> Optional[np.ndarray]:
    """Indices that sort ``batch`` by ``(timestamp, account_id)``, stably;
    ``None`` if it is in that order already.

    A stable argsort orders the timestamps, and accounts are compared only
    within runs of equal timestamps, where a tuple-key sort compares them.
    """
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    if len(cuts) + 1 < len(order):
        starts = np.append(0, cuts)
        stops = np.append(cuts, len(order))
        tied = stops - starts > 1
        for start, stop in zip(starts[tied].tolist(), stops[tied].tolist()):
            run = order[start:stop].tolist()
            run.sort(key=lambda k: (batch[k].timestamp, batch[k].account_id))
            order[start:stop] = run
    if (order == np.arange(len(order))).all():
        return None
    return order
