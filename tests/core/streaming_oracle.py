"""Reference streaming truth discovery: the per-observation interning loop.

A test-only oracle for :class:`repro.core.streaming.StreamingTruthDiscovery`
and :func:`repro.core.streaming.replay_dataset`.  It keeps its ids in
dict/list pairs, names each account's source with its own copy of the
grouping rule and fills its index arrays one observation at a time; the
fold-in arithmetic and the telemetry are those of the engine it checks,
so truths, weights, metrics and events must match it bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import bound_violation
from repro.core.truth_discovery import WeightFunction, crh_log_weights
from repro.core.types import MAX_ABS_VALUE, Grouping, Observation
from repro.errors import DataValidationError
from repro.obs import get_metrics, get_tracer


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    if len(array) >= needed:
        return array
    out = np.zeros(max(needed, 2 * len(array), 8))
    out[: len(array)] = array
    return out


class OracleStreaming:
    """Decayed streaming truth discovery with dict/list id stores."""

    def __init__(
        self,
        decay: float = 0.95,
        weight_function: WeightFunction = crh_log_weights,
        grouping: Optional[Grouping] = None,
    ):
        self._decay = decay
        self._weight_function = weight_function
        self._grouping = grouping
        self._grouped_accounts = grouping.accounts if grouping is not None else frozenset()
        self._source_names: Dict[object, str] = {}
        self._task_index: Dict[object, int] = {}
        self._task_labels: List[object] = []
        self._numerator = np.zeros(0)
        self._mass = np.zeros(0)
        self._stat_count = np.zeros(0)
        self._stat_mean = np.zeros(0)
        self._stat_m2 = np.zeros(0)
        self._source_index: Dict[str, int] = {}
        self._source_labels: List[str] = []
        self._errors = np.zeros(0)
        self._source_order: Optional[np.ndarray] = None
        self._weights: Dict[str, float] = {}
        self._batches = 0

    @property
    def truths(self) -> Dict[object, float]:
        n = len(self._task_labels)
        mass = self._mass[:n]
        with np.errstate(invalid="ignore", divide="ignore"):
            estimates = self._numerator[:n] / mass
        return {
            tid: float(estimates[j])
            for j, tid in enumerate(self._task_labels)
            if mass[j] > EPS
        }

    @property
    def weights(self) -> Dict[str, float]:
        return dict(self._weights)

    def _source_of(self, account_id) -> str:
        name = self._source_names.get(account_id)
        if name is None:
            if account_id in self._grouped_accounts:
                name = f"g{self._grouping.group_index_of(account_id)}"
            else:
                name = str(account_id)
            self._source_names[account_id] = name
        return name

    def _intern(self, batch: List[Observation]):
        src_idx = np.empty(len(batch), dtype=np.intp)
        tsk_idx = np.empty(len(batch), dtype=np.intp)
        values = np.empty(len(batch))
        for k, obs in enumerate(batch):
            source = self._source_of(obs.account_id)
            si = self._source_index.get(source)
            if si is None:
                si = len(self._source_labels)
                self._source_index[source] = si
                self._source_labels.append(source)
            ti = self._task_index.get(obs.task_id)
            if ti is None:
                ti = len(self._task_labels)
                self._task_index[obs.task_id] = ti
                self._task_labels.append(obs.task_id)
            src_idx[k] = si
            tsk_idx[k] = ti
            values[k] = obs.value
        n_tasks = len(self._task_labels)
        n_sources = len(self._source_labels)
        self._numerator = _grown(self._numerator, n_tasks)
        self._mass = _grown(self._mass, n_tasks)
        self._stat_count = _grown(self._stat_count, n_tasks)
        self._stat_mean = _grown(self._stat_mean, n_tasks)
        self._stat_m2 = _grown(self._stat_m2, n_tasks)
        if len(self._errors) < n_sources:
            self._errors = _grown(self._errors, n_sources)
            self._source_order = None
        return src_idx, tsk_idx, values

    def _task_spreads(self, n_tasks: int) -> np.ndarray:
        counts = self._stat_count[:n_tasks]
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = self._stat_m2[:n_tasks] / counts
        usable = (counts >= 2) & (variance > EPS)
        return np.where(usable, np.sqrt(np.where(usable, variance, 1.0)), 1.0)

    def observe(self, observations: Iterable[Observation]) -> Dict[object, float]:
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

        n_tasks_pre = len(self._task_labels)
        src_idx, tsk_idx, values = self._intern(batch)
        n_tasks = len(self._task_labels)
        n_sources = len(self._source_labels)
        numerator = self._numerator[:n_tasks]
        mass = self._mass[:n_tasks]
        errors = self._errors[:n_sources]

        numerator *= self._decay
        mass *= self._decay
        errors *= self._decay

        keys = src_idx * n_tasks + tsk_idx
        cell_keys, first_pos, inverse, cell_sizes = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        cell_src, cell_tsk = np.divmod(cell_keys, n_tasks)
        cell_votes = np.bincount(inverse, weights=values) / cell_sizes

        with np.errstate(invalid="ignore", divide="ignore"):
            pre_truths = numerator / mass
        scoreable = (cell_tsk < n_tasks_pre) & (mass[cell_tsk] > EPS)
        spreads = self._task_spreads(n_tasks)
        residual = cell_votes - np.where(scoreable, pre_truths[cell_tsk], 0.0)
        cell_errors = np.where(
            scoreable, residual * residual / spreads[cell_tsk] ** 2, 0.0
        )
        errors += np.bincount(cell_src, weights=cell_errors, minlength=n_sources)

        order = self._sorted_sources()
        weight_vector = self._weight_function(errors[order])
        self._weights = {
            self._source_labels[i]: float(w)
            for i, w in zip(order.tolist(), weight_vector)
        }

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

    def _sorted_sources(self) -> np.ndarray:
        if self._source_order is None or len(self._source_order) != len(
            self._source_labels
        ):
            self._source_order = np.array(
                sorted(
                    range(len(self._source_labels)),
                    key=self._source_labels.__getitem__,
                ),
                dtype=np.intp,
            )
        return self._source_order

    def _merge_claim_stats(
        self, tsk_idx: np.ndarray, values: np.ndarray, n_tasks: int
    ) -> None:
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


def oracle_replay(
    engine: OracleStreaming,
    observations: Iterable[Observation],
    batch_seconds: float = 60.0,
) -> Dict[object, float]:
    """Feed observations through ``engine`` in fixed time windows."""
    ordered = sorted(observations, key=lambda o: (o.timestamp, o.account_id))
    times = np.array([obs.timestamp for obs in ordered], dtype=float)
    windows = np.floor((times - times[:1]) / batch_seconds)
    bounds = [0, *(np.flatnonzero(windows[1:] != windows[:-1]) + 1).tolist(), len(ordered)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start:
            engine.observe(ordered[start:stop])
    return engine.truths
