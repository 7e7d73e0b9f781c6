"""The claim-matrix engine: unit tests and seed-equivalence checks.

The equivalence tests pin the engine to *reference implementations* — the
dense / dict-based loops the library shipped before the engine existed —
on randomized datasets covering the degenerate shapes (single-claim
tasks, constant-value tasks, unanswered tasks, every claimant in one
group).  Truths must match to 1e-9 and weight orderings must be
preserved.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine import (
    ClaimMatrix,
    ConvergencePolicy,
    column_spreads,
    compact_by_groups,
    initial_truths_eq5,
    run_convergence_loop,
    segment_row_distances,
    segment_weighted_medians,
    segment_weighted_truths,
)
from repro.core.framework import (
    GROUP_AGGREGATIONS,
    SybilResistantTruthDiscovery,
    aggregate_inverse_deviation,
)
from repro.core.streaming import StreamingTruthDiscovery
from repro.core.truth_discovery import (
    IterativeTruthDiscovery,
    crh_log_weights,
    weighted_median,
)
from repro.core.types import Grouping, Observation, Task


# ----------------------------------------------------------------------
# Dataset generators
# ----------------------------------------------------------------------


def random_dataset(
    rng: np.random.Generator,
    n_accounts: int = 12,
    n_tasks: int = 8,
    density: float = 0.6,
) -> SensingDataset:
    """A randomized campaign with deliberately degenerate corners.

    Always includes: one task claimed by a single account, one task whose
    claims are all the same constant, and one task nobody answers.
    """
    observations = []
    for i in range(n_accounts):
        for j in range(n_tasks - 1):  # last task stays unanswered
            if j == 0 and i > 0:
                continue  # task 0: single claimant
            if rng.random() >= density and j > 1:
                continue
            value = 7.25 if j == 1 else float(rng.normal(10 * j, 2.0))
            observations.append(
                Observation(f"a{i:02d}", f"T{j:02d}", value, float(i + j))
            )
    tasks = [Task(task_id=f"T{j:02d}") for j in range(n_tasks)]
    return SensingDataset(tasks, observations)


# ----------------------------------------------------------------------
# Reference implementations (the pre-engine dense / dict loops)
# ----------------------------------------------------------------------


def _nanstd(values, axis):
    """``np.nanstd``: NaN for an all-NaN column, without its warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanstd(values, axis=axis)


def reference_crh(
    dataset: SensingDataset,
    convergence: ConvergencePolicy = ConvergencePolicy(),
) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """The seed's dense Algorithm 1 loop (mean initializer/estimator).

    The rows are taken in the engine's order (``content_claims``), so every
    column is summed in the same order as the engine sums it.  Floating-point
    addition is not associative, and near an unstable fixed point of the
    iteration (two sources mirrored about a truth) a one-ulp difference in a
    column sum grows each round until it moves the truths by more than 1e-9
    or changes the iteration the loop stops on.
    """
    matrix, accounts, tasks = dataset.to_matrix()
    _, row_idx, _ = ClaimMatrix.from_dataset(dataset).content_claims()
    order = list(dict.fromkeys(row_idx.tolist()))
    order += sorted(set(range(len(accounts))) - set(order))
    matrix = matrix[order]
    accounts = tuple(accounts[i] for i in order)
    answered = ~np.isnan(matrix)
    task_mask = answered.any(axis=0)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        truths = np.nanmean(np.where(answered, matrix, np.nan), axis=0)
    spreads = _nanstd(matrix, axis=0)
    spreads = np.where(np.isnan(spreads) | (spreads < EPS), 1.0, spreads)

    iterations = 0
    weights = np.ones(len(accounts))
    for iterations in range(1, convergence.max_iterations + 1):
        deviation = np.where(answered, matrix - truths[np.newaxis, :], 0.0)
        distances = (deviation**2 / spreads[np.newaxis, :]).sum(axis=1)
        weights = crh_log_weights(distances)
        mass = (answered * weights[:, np.newaxis]).sum(axis=0)
        weighted = (np.where(answered, matrix, 0.0) * weights[:, np.newaxis]).sum(
            axis=0
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            estimates = weighted / mass
        new_truths = np.where(mass > 0, estimates, truths)
        delta = float(np.nanmax(np.abs(new_truths - truths)))
        truths = new_truths
        if delta < convergence.tolerance:
            break

    truth_map = {t: float(truths[j]) for j, t in enumerate(tasks) if task_mask[j]}
    weight_map = {a: float(w) for a, w in zip(accounts, weights)}
    return truth_map, weight_map, iterations


def reference_framework(
    dataset: SensingDataset, grouping: Grouping
) -> Tuple[Dict[str, float], Dict[int, float], int]:
    """The seed's dict-based Algorithm 2 (inverse-deviation aggregation)."""
    group_values: Dict[str, Dict[int, float]] = {}
    initial_weights: Dict[str, Dict[int, float]] = {}
    for task_id in dataset.tasks:
        claimants = dataset.accounts_for_task(task_id)
        if not claimants:
            continue
        per_group: Dict[int, List[float]] = {}
        for account in claimants:
            per_group.setdefault(grouping.group_index_of(account), []).append(
                dataset.value(account, task_id)
            )
        group_values[task_id] = {
            gi: aggregate_inverse_deviation(np.asarray(vals))
            for gi, vals in per_group.items()
        }
        initial_weights[task_id] = {
            gi: 1.0 - len(vals) / len(claimants) for gi, vals in per_group.items()
        }

    tasks = [tid for tid in dataset.tasks if tid in group_values]
    task_pos = {tid: j for j, tid in enumerate(tasks)}
    n_groups = len(grouping)
    values = np.full((n_groups, len(tasks)), np.nan)
    for tid, per_group in group_values.items():
        for gi, value in per_group.items():
            values[gi, task_pos[tid]] = value
    answered = ~np.isnan(values)

    truths = np.empty(len(tasks))
    for j, tid in enumerate(tasks):
        vals = group_values[tid]
        ws = initial_weights[tid]
        mass = sum(ws[gi] for gi in vals)
        if mass > EPS:
            truths[j] = sum(ws[gi] * vals[gi] for gi in vals) / mass
        else:
            truths[j] = float(np.mean(list(vals.values())))

    spreads = _nanstd(np.where(answered, values, np.nan), axis=0)
    spreads = np.where(np.isnan(spreads) | (spreads < EPS), 1.0, spreads)
    convergence = ConvergencePolicy(max_iterations=100)
    iterations = 0
    weights = np.ones(n_groups)
    for iterations in range(1, convergence.max_iterations + 1):
        deviation = np.where(answered, values - truths[np.newaxis, :], 0.0)
        distances = (deviation**2 / spreads[np.newaxis, :]).sum(axis=1)
        weights = crh_log_weights(distances)
        mass = (answered * weights[:, np.newaxis]).sum(axis=0)
        weighted = (np.where(answered, values, 0.0) * weights[:, np.newaxis]).sum(
            axis=0
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            estimates = weighted / mass
        new_truths = np.where(mass > 0, estimates, truths)
        delta = float(np.max(np.abs(new_truths - truths))) if len(tasks) else 0.0
        truths = new_truths
        if delta < convergence.tolerance:
            break

    truth_map = {tid: float(truths[j]) for tid, j in task_pos.items()}
    weight_map = {gi: float(w) for gi, w in enumerate(weights)}
    return truth_map, weight_map, iterations


class ReferenceStreaming:
    """The seed's dict-based streaming engine (decayed states + Welford)."""

    def __init__(self, decay: float, grouping=None):
        self._decay = decay
        self._grouping = grouping
        self._states: Dict[str, List[float]] = {}  # [numerator, mass, n, mean, m2]
        self._errors: Dict[str, float] = {}
        self.weights: Dict[str, float] = {}

    def _source_of(self, account_id):
        if self._grouping is not None and account_id in self._grouping.accounts:
            return f"g{self._grouping.group_index_of(account_id)}"
        return str(account_id)

    def _spread(self, state):
        if state[2] < 2:
            return 1.0
        variance = state[4] / state[2]
        return max(float(np.sqrt(variance)), EPS) if variance > EPS else 1.0

    def _estimate(self, state):
        return None if state[1] <= EPS else state[0] / state[1]

    def observe(self, batch):
        for state in self._states.values():
            state[0] *= self._decay
            state[1] *= self._decay
        for source in self._errors:
            self._errors[source] *= self._decay
        votes: Dict[Tuple[str, str], List[float]] = {}
        for obs in batch:
            votes.setdefault(
                (self._source_of(obs.account_id), obs.task_id), []
            ).append(obs.value)
        pre = {tid: self._estimate(s) for tid, s in self._states.items()}
        for (source, task_id), vals in votes.items():
            vote = float(np.mean(vals))
            truth = pre.get(task_id)
            state = self._states.get(task_id)
            if truth is not None and state is not None:
                error = (vote - truth) ** 2 / self._spread(state) ** 2
                self._errors[source] = self._errors.get(source, 0.0) + error
            else:
                self._errors.setdefault(source, 0.0)
        sources = sorted(self._errors)
        weight_vector = crh_log_weights(np.array([self._errors[s] for s in sources]))
        self.weights = {s: float(w) for s, w in zip(sources, weight_vector)}
        for (source, task_id), vals in votes.items():
            vote = float(np.mean(vals))
            state = self._states.setdefault(task_id, [0.0, 0.0, 0, 0.0, 0.0])
            weight = self.weights.get(source, 1.0)
            if state[1] <= EPS and weight <= EPS:
                weight = EPS * 10
            state[0] += weight * vote
            state[1] += weight
            for value in vals:
                state[2] += 1
                delta = value - state[3]
                state[3] += delta / state[2]
                state[4] += delta * (value - state[3])

    @property
    def truths(self):
        out = {}
        for tid, state in self._states.items():
            value = self._estimate(state)
            if value is not None:
                out[tid] = value
        return out


def assert_same_ordering(reference: np.ndarray, actual: np.ndarray) -> None:
    """Pairs clearly ordered in the reference stay so ordered in actual."""
    for i in range(len(reference)):
        for j in range(i + 1, len(reference)):
            if reference[i] > reference[j] + 1e-8:
                assert actual[i] > actual[j]
            elif reference[j] > reference[i] + 1e-8:
                assert actual[j] > actual[i]


# ----------------------------------------------------------------------
# ClaimMatrix structure
# ----------------------------------------------------------------------


class TestClaimMatrix:
    def test_layout_matches_dense_matrix(self, simple_dataset):
        cm = ClaimMatrix.from_dataset(simple_dataset)
        dense, accounts, tasks = simple_dataset.to_matrix()
        assert cm.row_labels == accounts
        assert cm.col_labels == tasks
        assert cm.nnz == int((~np.isnan(dense)).sum())
        rebuilt = np.full_like(dense, np.nan)
        rebuilt[cm.row_idx, cm.col_idx] = cm.values
        np.testing.assert_array_equal(np.isnan(rebuilt), np.isnan(dense))
        np.testing.assert_allclose(
            rebuilt[~np.isnan(dense)], dense[~np.isnan(dense)]
        )

    def test_claims_are_row_col_sorted_regardless_of_input_order(self, rng):
        row = rng.integers(0, 5, 30)
        col = rng.integers(0, 4, 30)
        cm = ClaimMatrix(
            row, col, rng.normal(size=30), 5, 4,
            tuple("rowabcde"[:5]), tuple("colwxyz"[:4]),
        )
        keys = cm.row_idx * 4 + cm.col_idx
        assert (np.diff(keys) >= 0).all()

    def test_column_stats_match_dense(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        dense, _, _ = dataset.to_matrix()
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            np.testing.assert_allclose(
                cm.column_means(), np.nanmean(dense, axis=0), equal_nan=True
            )
            np.testing.assert_allclose(
                cm.column_medians(), np.nanmedian(dense, axis=0), equal_nan=True
            )

    def test_unanswered_column_is_nan_everywhere(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        last = cm.n_cols - 1
        assert not cm.answered_cols[last]
        assert np.isnan(cm.column_means()[last])
        assert np.isnan(cm.column_medians()[last])
        assert cm.spreads[last] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1.5, 1.5]),
            ),
            max_size=25,
        ),
    )
    def test_column_medians_match_per_column_np_median(self, n_cols, claims):
        # Columns beyond a claim's reach stay empty; many hold one claim.
        claims = [(c % n_cols, v) for c, v in claims]
        cols = np.array([c for c, _ in claims], dtype=np.intp)
        values = np.array([v for _, v in claims], dtype=float)
        cm = ClaimMatrix(
            np.arange(len(claims)), cols, values, len(claims), n_cols,
            tuple(f"a{k}" for k in range(len(claims))), tuple(range(n_cols)),
        )
        expected = np.full(n_cols, np.nan)
        for j in range(n_cols):
            if (cols == j).any():
                expected[j] = np.median(values[cols == j])
        # + 0.0 folds -0.0 into 0.0: which zero sorts into the middle is
        # not part of the contract.
        assert (cm.column_medians() + 0.0).tobytes() == (expected + 0.0).tobytes()


class TestKernels:
    def test_segment_truths_match_dense_weighted_mean(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        weights = rng.uniform(0.1, 2.0, cm.n_rows)
        got = segment_weighted_truths(
            cm.values, cm.col_idx, weights[cm.row_idx], cm.n_cols,
            np.full(cm.n_cols, -1.0),
        )
        dense, _, _ = dataset.to_matrix()
        answered = ~np.isnan(dense)
        mass = (answered * weights[:, np.newaxis]).sum(axis=0)
        expected = (np.where(answered, dense, 0.0) * weights[:, np.newaxis]).sum(
            axis=0
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.where(mass > 0, expected / mass, -1.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_zero_weight_column_keeps_previous(self):
        values = np.array([3.0, 5.0])
        col_idx = np.array([0, 1])
        got = segment_weighted_truths(
            values, col_idx, np.array([0.0, 1.0]), 2, np.array([42.0, 0.0])
        )
        np.testing.assert_allclose(got, [42.0, 5.0])

    def test_row_distances_match_dense(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        truths = np.nan_to_num(cm.column_means())
        got = segment_row_distances(
            cm.values, cm.row_idx, cm.col_idx, truths, cm.n_rows, cm.spreads
        )
        dense, _, _ = dataset.to_matrix()
        answered = ~np.isnan(dense)
        deviation = np.where(answered, dense - truths[np.newaxis, :], 0.0)
        expected = (deviation**2 / cm.spreads[np.newaxis, :]).sum(axis=1)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_weighted_medians_match_scalar_reference(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        claim_weights = rng.uniform(0.0, 1.0, cm.nnz)
        previous = np.full(cm.n_cols, -99.0)
        got = segment_weighted_medians(
            cm.values, cm.col_idx, claim_weights, cm.n_cols, previous
        )
        for j in range(cm.n_cols):
            mask = cm.col_idx == j
            if not mask.any() or claim_weights[mask].sum() <= 0:
                assert got[j] == -99.0
                continue
            assert got[j] == weighted_median(cm.values[mask], claim_weights[mask])

    def test_weighted_median_tie_breaking_is_stable(self):
        # Equal values, all weight on the later claims: matches the
        # scalar helper exactly.
        values = np.array([5.0, 5.0, 5.0, 1.0])
        col_idx = np.zeros(4, dtype=np.intp)
        weights = np.array([0.0, 1.0, 1.0, 0.0])
        got = segment_weighted_medians(values, col_idx, weights, 1, np.zeros(1))
        assert got[0] == weighted_median(values, weights)

    def test_column_spreads_floor_constant_and_single_claim(self):
        values = np.array([7.25, 7.25, 3.0, 1.0, 9.0])
        col_idx = np.array([0, 0, 1, 2, 2])
        spreads = column_spreads(values, col_idx, 4)
        assert spreads[0] == 1.0  # constant column
        assert spreads[1] == 1.0  # single claim
        assert spreads[2] == pytest.approx(4.0)  # std of {1, 9}
        assert spreads[3] == 1.0  # no claims


# ----------------------------------------------------------------------
# Group compaction (Eq. 3/4) and Eq. 5 initialization
# ----------------------------------------------------------------------


class TestCompaction:
    @pytest.fixture
    def grouped_setup(self, rng):
        dataset = random_dataset(rng)
        accounts = dataset.accounts
        labels = rng.integers(0, 4, len(accounts))
        groups: Dict[int, List[str]] = {}
        for account, g in zip(accounts, labels):
            groups.setdefault(int(g), []).append(account)
        grouping = Grouping.from_groups(list(groups.values()))
        matrix = ClaimMatrix.from_dataset(dataset)
        row_to_group = [grouping.group_index_of(a) for a in accounts]
        return dataset, grouping, matrix, row_to_group

    @pytest.mark.parametrize("name", sorted(GROUP_AGGREGATIONS))
    def test_cell_values_match_per_cell_aggregation(self, grouped_setup, name):
        dataset, grouping, matrix, row_to_group = grouped_setup
        aggregation = GROUP_AGGREGATIONS[name]
        grouped = compact_by_groups(matrix, row_to_group, len(grouping), name)
        gm = grouped.matrix
        for k in range(gm.nnz):
            gi, j = int(gm.row_idx[k]), int(gm.col_idx[k])
            members = [
                v
                for r, c, v in zip(matrix.row_idx, matrix.col_idx, matrix.values)
                if row_to_group[r] == gi and c == j
            ]
            assert gm.values[k] == pytest.approx(
                aggregation(np.asarray(members)), rel=1e-12
            )

    def test_eq4_weights(self, grouped_setup):
        dataset, grouping, matrix, row_to_group = grouped_setup
        grouped = compact_by_groups(
            matrix, row_to_group, len(grouping), "mean"
        )
        gm = grouped.matrix
        claimants = matrix.claim_counts_by_col
        for k in range(gm.nnz):
            expected = 1.0 - grouped.cell_sizes[k] / claimants[gm.col_idx[k]]
            assert grouped.initial_weights[k] == pytest.approx(expected)

    def test_single_claim_cell_is_exact_identity(self):
        # inverse-deviation on a 1-claim cell must return the claim bit-exactly.
        matrix = ClaimMatrix(
            np.array([0]), np.array([0]), np.array([0.1 + 0.2]), 1, 1, ("a",), ("T",)
        )
        grouped = compact_by_groups(matrix, [0], 1, "inverse_deviation")
        assert grouped.matrix.values[0] == 0.1 + 0.2

    def test_eq5_matches_dict_reference(self, grouped_setup):
        dataset, grouping, matrix, row_to_group = grouped_setup
        grouped = compact_by_groups(
            matrix, row_to_group, len(grouping), "inverse_deviation"
        )
        gm = grouped.matrix
        got = initial_truths_eq5(
            gm.values, gm.col_idx, grouped.initial_weights, gm.n_cols
        )
        for j in range(gm.n_cols):
            mask = gm.col_idx == j
            if not mask.any():
                assert np.isnan(got[j])
                continue
            ws, vs = grouped.initial_weights[mask], gm.values[mask]
            if ws.sum() > EPS:
                expected = (ws * vs).sum() / ws.sum()
            else:
                expected = vs.mean()
            assert got[j] == pytest.approx(expected, rel=1e-12)

    def test_eq5_all_claimants_in_one_group_falls_back_to_mean(self):
        # One group holds every claimant: Eq. 4 weight is 0 and Eq. 5 is
        # 0/0 — the grouped value itself must come back.
        values = np.array([4.5])
        got = initial_truths_eq5(values, np.array([0]), np.array([0.0]), 1)
        assert got[0] == 4.5


# ----------------------------------------------------------------------
# Equivalence with the pre-engine implementations
# ----------------------------------------------------------------------


class TestSeedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_crh_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, n_accounts=15, n_tasks=10)
        ref_truths, ref_weights, ref_iters = reference_crh(dataset)
        result = IterativeTruthDiscovery().discover(dataset)
        assert result.iterations == ref_iters
        assert set(result.truths) == set(ref_truths)
        for tid, value in ref_truths.items():
            assert result.truths[tid] == pytest.approx(value, abs=1e-9)
        ref = np.array([ref_weights[a] for a in sorted(ref_weights)])
        got = np.array([result.weights[a] for a in sorted(result.weights)])
        np.testing.assert_allclose(got, ref, atol=1e-9)
        assert_same_ordering(ref, got)

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_framework_matches_dict_reference(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, n_accounts=15, n_tasks=10)
        accounts = dataset.accounts
        labels = rng.integers(0, 5, len(accounts))
        groups: Dict[int, List[str]] = {}
        for account, g in zip(accounts, labels):
            groups.setdefault(int(g), []).append(account)
        grouping = Grouping.from_groups(list(groups.values()))

        ref_truths, ref_weights, ref_iters = reference_framework(dataset, grouping)
        result = SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)
        assert result.iterations == ref_iters
        assert set(result.truths) == set(ref_truths)
        for tid, value in ref_truths.items():
            assert result.truths[tid] == pytest.approx(value, abs=1e-9)
        ref = np.array([ref_weights[g] for g in sorted(ref_weights)])
        got = np.array([result.group_weights[g] for g in sorted(result.group_weights)])
        np.testing.assert_allclose(got, ref, atol=1e-9)
        assert_same_ordering(ref, got)

    def test_framework_single_group_matches_reference(self, simple_dataset):
        grouping = Grouping.from_groups([list(simple_dataset.accounts)])
        ref_truths, _, _ = reference_framework(simple_dataset, grouping)
        result = SybilResistantTruthDiscovery().discover(
            simple_dataset, grouping=grouping
        )
        for tid, value in ref_truths.items():
            assert result.truths[tid] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("seed,decay", [(0, 0.9), (5, 1.0), (21, 0.5)])
    def test_streaming_matches_dict_reference(self, seed, decay):
        rng = np.random.default_rng(seed)
        grouping = Grouping.from_groups([["a00", "a01"], ["a02"]])
        engine = StreamingTruthDiscovery(decay=decay, grouping=grouping)
        reference = ReferenceStreaming(decay=decay, grouping=grouping)
        t = 0.0
        for _ in range(12):
            batch = []
            for _ in range(rng.integers(1, 9)):
                account = f"a{rng.integers(0, 6):02d}"
                task = f"T{rng.integers(0, 4)}"
                batch.append(Observation(account, task, float(rng.normal()), t))
                t += 1.0
            engine.observe(batch)
            reference.observe(batch)
            assert set(engine.truths) == set(reference.truths)
            for tid, value in reference.truths.items():
                assert engine.truths[tid] == pytest.approx(value, abs=1e-9)
            assert list(engine.weights) == list(reference.weights)
            for source, weight in reference.weights.items():
                assert engine.weights[source] == pytest.approx(weight, abs=1e-9)

    def test_median_estimator_matches_reference_scalar_loop(self, rng):
        dataset = random_dataset(rng)
        result = IterativeTruthDiscovery(truth_estimator="median").discover(dataset)
        # Re-derive the final truths by hand from the final weights.
        cm = ClaimMatrix.from_dataset(dataset)
        weights = np.array([result.weights[a] for a in cm.row_labels])
        for j, tid in enumerate(cm.col_labels):
            mask = cm.col_idx == j
            if not mask.any():
                continue
            expected = weighted_median(cm.values[mask], weights[cm.row_idx[mask]])
            assert result.truths[tid] == pytest.approx(expected, abs=1e-9)


# ----------------------------------------------------------------------
# The shared loop
# ----------------------------------------------------------------------


class TestRunConvergenceLoop:
    def test_unanswered_columns_stay_nan(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        result = run_convergence_loop(
            cm,
            weight_function=crh_log_weights,
            convergence=ConvergencePolicy(),
            initial_truths=cm.column_means(),
        )
        assert np.isnan(result.truths[~cm.answered_cols]).all()
        assert np.isfinite(result.truths[cm.answered_cols]).all()

    def test_history_covers_answered_columns_per_iteration(self, rng):
        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        result = run_convergence_loop(
            cm,
            weight_function=crh_log_weights,
            convergence=ConvergencePolicy(),
            initial_truths=cm.column_means(),
        )
        assert len(result.history) == result.iterations
        assert all(
            len(snapshot) == int(cm.answered_cols.sum())
            for snapshot in result.history
        )

    def test_strict_budget_raises_with_subject(self, rng):
        from repro.errors import ConvergenceError

        dataset = random_dataset(rng)
        cm = ClaimMatrix.from_dataset(dataset)
        with pytest.raises(ConvergenceError, match="engine_test did not converge"):
            run_convergence_loop(
                cm,
                weight_function=crh_log_weights,
                convergence=ConvergencePolicy(
                    max_iterations=1, tolerance=0.0, strict=True
                ),
                initial_truths=cm.column_means(),
                name="engine_test",
            )
