"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.categorical import CategoricalClaims, CategoricalTruthDiscovery
from repro.core.dataset import SensingDataset
from repro.core.framework import aggregate_inverse_deviation
from repro.core.streaming import StreamingTruthDiscovery
from repro.core.types import Observation, Task
from repro.core.truth_discovery import IterativeTruthDiscovery, crh_log_weights
from repro.core.types import Grouping
from repro.features import temporal
from repro.metrics.accuracy import mean_absolute_error, root_mean_squared_error
from repro.ml.metrics import adjusted_rand_index, pair_confusion, rand_index
from repro.timeseries.dtw import dtw_costs, dtw_distance, warping_path
from tests.core.test_engine import reference_crh

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

series = st.lists(finite_floats, min_size=1, max_size=12)

labelings = st.integers(min_value=2, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


# ----------------------------------------------------------------------
# Grouping invariants
# ----------------------------------------------------------------------


@given(st.lists(st.lists(st.integers(0, 50), min_size=0, max_size=6), max_size=8))
def test_grouping_is_partition(raw_groups):
    seen = set()
    disjoint = []
    for group in raw_groups:
        cleaned = [account for account in group if account not in seen]
        seen.update(cleaned)
        disjoint.append([str(a) for a in cleaned])
    grouping = Grouping.from_groups(disjoint)
    # Disjoint cover: every account in exactly one group.
    accounts = [a for g in grouping.groups for a in g]
    assert len(accounts) == len(set(accounts))
    assert set(accounts) == grouping.accounts
    for account in grouping.accounts:
        assert account in grouping.group_of(account)


@given(st.sets(st.text(min_size=1, max_size=4), min_size=1, max_size=10))
def test_singleton_grouping_roundtrip(accounts):
    grouping = Grouping.singletons(accounts)
    assert len(grouping) == len(accounts)
    labels = grouping.as_labels(sorted(accounts))
    assert len(set(labels)) == len(accounts)


# ----------------------------------------------------------------------
# Clustering metrics
# ----------------------------------------------------------------------


@given(labelings)
def test_pair_confusion_counts_sum(pair):
    a, b = pair
    counts = pair_confusion(a, b)
    n = len(a)
    assert sum(counts) == n * (n - 1) // 2
    assert all(count >= 0 for count in counts)


@given(labelings)
def test_ari_bounded_and_symmetric(pair):
    a, b = pair
    ari = adjusted_rand_index(a, b)
    assert -1.0 - 1e-12 <= ari <= 1.0 + 1e-12
    assert ari == pytest.approx(adjusted_rand_index(b, a))


@given(st.lists(st.integers(0, 4), min_size=2, max_size=25))
def test_ari_of_identical_labelings_is_one(labels):
    assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)


@given(labelings)
def test_rand_index_in_unit_interval(pair):
    a, b = pair
    assert 0.0 <= rand_index(a, b) <= 1.0


# ----------------------------------------------------------------------
# DTW invariants
# ----------------------------------------------------------------------


@given(series, series)
@settings(max_examples=60)
@example([0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0])  # up/left tie in the backtrack
def test_dtw_symmetric_nonnegative(a, b):
    d_ab = dtw_distance(a, b)
    assert d_ab >= 0.0
    assert d_ab == dtw_distance(b, a)
    path, total = warping_path(a, b)
    assert warping_path(b, a) == ([(j, i) for i, j in path], total)


@given(series)
def test_dtw_identity(a):
    assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-12)


@given(series, series)
@settings(max_examples=60)
def test_dtw_path_is_valid_warping(a, b):
    path, total = warping_path(a, b)
    assert path[0] == (0, 0)
    assert path[-1] == (len(a) - 1, len(b) - 1)
    assert max(len(a), len(b)) <= len(path) <= len(a) + len(b) - 1
    # The reported total equals the cost accumulated along the path.
    arr_a, arr_b = np.asarray(a), np.asarray(b)
    recomputed = sum((arr_a[i] - arr_b[j]) ** 2 for i, j in path)
    assert total == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Temporal features
# ----------------------------------------------------------------------


@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_temporal_feature_relations(signal):
    assert temporal.maximum(signal) >= temporal.minimum(signal)
    assert temporal.root_mean_square(signal) >= abs(temporal.mean(signal)) - 1e-6
    assert 0.0 <= temporal.zero_crossing_rate(signal) <= 1.0
    assert 0 <= temporal.non_negative_count(signal) <= len(signal)


@given(st.lists(finite_floats, min_size=2, max_size=50), finite_floats)
def test_temporal_mean_shift_equivariance(signal, shift):
    assume(abs(shift) < 1e5)
    shifted = [x + shift for x in signal]
    assert temporal.mean(shifted) == pytest.approx(
        temporal.mean(signal) + shift, rel=1e-6, abs=1e-6
    )
    assert temporal.standard_deviation(shifted) == pytest.approx(
        temporal.standard_deviation(signal), rel=1e-6, abs=1e-6
    )


# ----------------------------------------------------------------------
# Truth discovery invariants
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.lists(st.floats(-100, 0), min_size=3, max_size=3),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=40)
def test_truths_are_convex_combinations_of_claims(matrix):
    dataset = SensingDataset.from_matrix(matrix)
    result = IterativeTruthDiscovery().discover(dataset)
    arr = np.asarray(matrix)
    for j, tid in enumerate(sorted({f"T{k + 1}" for k in range(3)})):
        column = arr[:, j]
        assert column.min() - 1e-6 <= result.truths[tid] <= column.max() + 1e-6


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20))
def test_crh_weights_nonincreasing_in_distance(distances):
    weights = crh_log_weights(np.asarray(distances))
    order = np.argsort(distances)
    sorted_weights = weights[order]
    assert all(
        a >= b - 1e-9 for a, b in zip(sorted_weights, sorted_weights[1:])
    )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=15))
def test_inverse_deviation_aggregate_within_range(values):
    estimate = aggregate_inverse_deviation(np.asarray(values))
    assert min(values) - 1e-9 <= estimate <= max(values) + 1e-9


# ----------------------------------------------------------------------
# Accuracy metrics
# ----------------------------------------------------------------------


@given(
    st.dictionaries(
        st.sampled_from(["T1", "T2", "T3", "T4"]),
        st.floats(-100, 0),
        min_size=1,
    ),
    st.floats(0, 50),
)
def test_mae_translation_bound(truths, offset):
    estimates = {tid: value + offset for tid, value in truths.items()}
    assert mean_absolute_error(estimates, truths) == pytest.approx(offset, abs=1e-9)
    assert root_mean_squared_error(estimates, truths) == pytest.approx(
        offset, abs=1e-9
    )


@given(
    st.dictionaries(
        st.sampled_from(["T1", "T2", "T3"]), st.floats(-100, 0), min_size=1
    )
)
def test_rmse_dominates_mae(estimates):
    truths = {tid: -50.0 for tid in estimates}
    mae = mean_absolute_error(estimates, truths)
    rmse = root_mean_squared_error(estimates, truths)
    assert rmse >= mae - 1e-9


# ----------------------------------------------------------------------
# Streaming truth discovery
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.lists(finite_floats, min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=0.5, max_value=1.0),
)
@settings(max_examples=40)
def test_streaming_truths_within_observed_range(batches, decay):
    engine = StreamingTruthDiscovery(decay=decay)
    seen = []
    for batch_no, values in enumerate(batches):
        observations = [
            Observation(f"a{k}", "T1", value, float(batch_no))
            for k, value in enumerate(values)
        ]
        seen.extend(values)
        engine.observe(observations)
    estimate = engine.truths["T1"]
    assert min(seen) - 1e-6 <= estimate <= max(seen) + 1e-6


@given(st.lists(finite_floats, min_size=1, max_size=10))
def test_streaming_single_batch_matches_claims_hull(values):
    engine = StreamingTruthDiscovery()
    engine.observe(
        [Observation(f"a{k}", "T1", v, 0.0) for k, v in enumerate(values)]
    )
    assert min(values) - 1e-6 <= engine.truths["T1"] <= max(values) + 1e-6


# ----------------------------------------------------------------------
# Categorical truth discovery
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),            # account index
            st.integers(0, 3),            # task index
            st.sampled_from(["A", "B", "C"]),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=40)
def test_categorical_truth_is_some_claimed_label(triples):
    deduplicated = {}
    for account, task, label in triples:
        deduplicated[(f"a{account}", f"T{task}")] = label
    claims = CategoricalClaims(
        [(account, task, label) for (account, task), label in deduplicated.items()]
    )
    result = CategoricalTruthDiscovery().discover(claims)
    for task in claims.tasks:
        claimed = set(claims.claims_for_task(task).values())
        assert result.truths[task] in claimed


# ----------------------------------------------------------------------
# DTW lower bounds
# ----------------------------------------------------------------------


@given(series, series)
@settings(max_examples=60)
def test_lb_kim_is_lower_bound(a, b):
    from repro.timeseries.bounds import lb_kim

    dtw = dtw_costs([a], [b])[0]
    # Relative slack: at large magnitudes one float ulp exceeds any fixed
    # absolute tolerance.
    assert lb_kim(a, b) <= dtw + max(1e-6, 1e-9 * abs(dtw))


# ----------------------------------------------------------------------
# Detection metrics
# ----------------------------------------------------------------------


@given(
    st.lists(st.booleans(), min_size=1, max_size=12),
)
def test_detection_report_counts_partition_population(flags):
    from repro.core.types import Grouping
    from repro.metrics.detection import detection_report

    accounts = [f"a{k}" for k in range(len(flags))]
    # Group all flagged accounts pairwise (chain), leave others single.
    flagged = [a for a, f in zip(accounts, flags) if f]
    groups = [[a] for a, f in zip(accounts, flags) if not f]
    if len(flagged) >= 2:
        groups.append(flagged)
    else:
        groups.extend([[a] for a in flagged])
    grouping = Grouping.from_groups(groups)
    sybil = set(accounts[::2])
    report = detection_report(grouping, sybil)
    total = (
        report.true_positives
        + report.false_positives
        + report.false_negatives
        + report.true_negatives
    )
    assert total == len(accounts)
    assert 0.0 <= report.precision <= 1.0
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.f1 <= 1.0


# ----------------------------------------------------------------------
# Claim-matrix engine invariants
# ----------------------------------------------------------------------

sparse_matrices = st.lists(
    st.lists(
        st.one_of(st.none(), st.floats(-100, 100)), min_size=4, max_size=4
    ),
    min_size=2,
    max_size=8,
).map(
    lambda rows: [
        [np.nan if v is None else v for v in row] for row in rows
    ]
)

_NAN = float("nan")


@given(sparse_matrices)
@settings(max_examples=40, deadline=None)
# Accounts 1 and 2 sit mirrored about T2's truth: an unstable fixed point
# where one ulp of difference in a column sum decides the outcome.
@example([[_NAN, _NAN, 0.0, _NAN], [_NAN, 0.0, 12.5, _NAN], [_NAN, 20.6875, 12.5, _NAN]])
@example([[_NAN, _NAN, 0.0, _NAN], [_NAN, 0.0, 9.0, _NAN], [_NAN, 19.0, 9.0, _NAN]])
def test_engine_crh_matches_dense_reference(matrix):
    arr = np.asarray(matrix)
    assume(np.isfinite(arr).any(axis=1).all())  # every account claims something
    dataset = SensingDataset.from_matrix(matrix)
    ref_truths, ref_weights, ref_iters = reference_crh(dataset)
    result = IterativeTruthDiscovery().discover(dataset)
    assert result.iterations == ref_iters
    assert set(result.truths) == set(ref_truths)
    for tid, value in ref_truths.items():
        assert result.truths[tid] == pytest.approx(value, abs=1e-9)
    for account, weight in ref_weights.items():
        assert result.weights[account] == pytest.approx(weight, abs=1e-9)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(-50, 50), st.floats(0, 1)),
        min_size=1,
        max_size=25,
    )
)
def test_segment_truths_stay_in_claim_hull(claims):
    from repro.core.engine import segment_weighted_truths

    col_idx = np.array([c for c, _, _ in claims], dtype=np.intp)
    values = np.array([v for _, v, _ in claims])
    weights = np.array([w for _, _, w in claims])
    previous = np.full(4, 123.0)
    truths = segment_weighted_truths(values, col_idx, weights, 4, previous)
    for j in range(4):
        mask = col_idx == j
        if mask.any() and weights[mask].sum() > 0:
            assert values[mask].min() - 1e-9 <= truths[j]
            assert truths[j] <= values[mask].max() + 1e-9
        else:
            assert truths[j] == 123.0


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.floats(-50, 50), st.floats(0, 1)),
        min_size=1,
        max_size=20,
    )
)
# Regression pin: a weight below one ulp of the column's running total
# was absorbed by the kernel's old global-cumsum trick, shifting the
# median index.
@example(claims=[(0, 0.0, 1.0), (1, 0.0, 0.0), (1, -1.0, 1.1573762330996456e-251)])
def test_segment_medians_match_scalar_weighted_median(claims):
    from repro.core.engine import segment_weighted_medians
    from repro.core.truth_discovery import weighted_median

    col_idx = np.array([c for c, _, _ in claims], dtype=np.intp)
    values = np.array([v for _, v, _ in claims])
    weights = np.array([w for _, _, w in claims])
    previous = np.full(3, -7.0)
    medians = segment_weighted_medians(values, col_idx, weights, 3, previous)
    for j in range(3):
        mask = col_idx == j
        if mask.any() and weights[mask].sum() > 0:
            assert medians[j] == weighted_median(values[mask], weights[mask])
        else:
            assert medians[j] == -7.0


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=12),
    st.data(),
)
@settings(max_examples=40)
def test_compact_by_groups_invariants(values, data):
    from repro.core.engine import ClaimMatrix, compact_by_groups

    n = len(values)
    groups = data.draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), label="groups"
    )
    # One column, every claim from a distinct account.
    matrix = ClaimMatrix(
        np.arange(n),
        np.zeros(n, dtype=np.intp),
        np.asarray(values),
        n,
        1,
        tuple(f"a{i}" for i in range(n)),
        ("T1",),
    )
    grouped = compact_by_groups(matrix, groups, 3, "inverse_deviation")
    gm = grouped.matrix
    assert gm.nnz == len(set(groups))
    assert gm.nnz <= matrix.nnz
    # Eq. 4 weights live in [0, 1); cell sizes sum to the claim count.
    assert ((grouped.initial_weights >= 0) & (grouped.initial_weights < 1)).all()
    assert grouped.cell_sizes.sum() == matrix.nnz
    # Aggregated values stay inside each group's claim range.
    for k in range(gm.nnz):
        members = [v for v, g in zip(values, groups) if g == gm.row_idx[k]]
        assert min(members) - 1e-9 <= gm.values[k] <= max(members) + 1e-9


# ----------------------------------------------------------------------
# Metamorphic properties of Algorithm 2 (no ground truth needed)
# ----------------------------------------------------------------------


@st.composite
def campaign_matrices(draw):
    """2-11 accounts x 1-7 tasks, sparse; every account claims something."""
    n = draw(st.integers(2, 11))
    m = draw(st.integers(1, 7))
    cell = st.one_of(st.none(), st.floats(-100, 100))
    rows = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]
    arr = np.array([[np.nan if v is None else v for v in row] for row in rows])
    assume(np.isfinite(arr).any(axis=1).all())
    return arr


def _crh_round(matrix, truths):
    """One CRH round from per-column ``truths`` on the dense matrix: Eq. 1
    weights (spread-normalized distances, log functional), then Eq. 2
    weighted means.  Also returns the column means and the answered mask."""
    claimed = ~np.isnan(matrix)
    counts = np.maximum(claimed.sum(axis=0), 1)
    means = np.where(claimed, matrix, 0.0).sum(axis=0) / counts
    spreads = np.sqrt((np.where(claimed, matrix - means, 0.0) ** 2).sum(axis=0) / counts)
    spreads = np.where(spreads >= 1e-12, spreads, 1.0)
    deviation = np.where(claimed, matrix - truths, 0.0)
    distances = np.maximum((deviation**2 / spreads).sum(axis=1), 1e-12)
    weights = np.maximum(np.log(distances.sum() / distances), 0.0)
    mass = (weights[:, None] * claimed).sum(axis=0)
    weighted = (weights[:, None] * np.where(claimed, matrix, 0.0)).sum(axis=0)
    updated = np.where(mass > 0, weighted / np.where(mass > 0, mass, 1.0), truths)
    return updated, means, claimed.any(axis=0)


def _assert_runs_crh(matrix, result):
    """Each recorded iterate is one CRH round from the one before it, and
    the first is one round from the column means."""
    _, previous, answered = _crh_round(matrix, np.zeros(matrix.shape[1]))
    for recorded in result.truth_history:
        expected, _, _ = _crh_round(matrix, previous)
        previous = expected.copy()
        previous[answered] = recorded
        assert np.abs(expected - previous).max() <= 1e-9
    assert tuple(result.truths.values()) == result.truth_history[-1]


@given(campaign_matrices())
@example(np.array([[np.nan, 0, np.nan], [np.nan, 22, 0], [np.nan, 22, 49]]))
@settings(max_examples=60, deadline=None)
def test_framework_with_singleton_groups_is_crh(matrix):
    from repro.core.crh import CRH
    from repro.core.framework import SybilResistantTruthDiscovery

    # Compared round by round, not by final truths: CRH starts from the
    # column means and the framework from Eq. 5 (the same means up to the
    # last bits), and the 1e-6 stop rule fires at a different distance
    # from the fixed point in each (1.9e-8 apart on the example above),
    # while slowly contracting matrices are still moving by 1e-4 a round
    # after 1000 rounds.
    dataset = SensingDataset.from_matrix(matrix)
    crh = CRH().discover(dataset)
    framework = SybilResistantTruthDiscovery().discover(
        dataset, grouping=Grouping.singletons(dataset.accounts)
    )
    assert set(framework.truths) == set(crh.truths)
    _assert_runs_crh(matrix, crh)
    _assert_runs_crh(matrix, framework)


@given(campaign_matrices())
@settings(max_examples=60, deadline=None)
def test_crh_truths_invariant_under_reversed_account_order(matrix):
    from repro.core.crh import CRH

    n = len(matrix)
    # Account ids sort in row order, so reversing the rows under the
    # same ids reverses the order the engine sees the accounts in.
    ids = [f"a{i:02d}" for i in range(n)]
    forward = CRH().discover(SensingDataset.from_matrix(matrix, account_ids=ids))
    backward = CRH().discover(SensingDataset.from_matrix(matrix[::-1], account_ids=ids))
    assert set(forward.truths) == set(backward.truths)
    for task, truth in forward.truths.items():
        assert backward.truths[task] == pytest.approx(truth, abs=1e-9)


@given(campaign_matrices(), st.sampled_from([1, 3]))
@settings(max_examples=60, deadline=None)
def test_crh_truths_affine_equivariant_at_fixed_iterations(matrix, iterations):
    # ConvergencePolicy.tolerance is an absolute truth change, so scaled
    # data can stop on a different iteration; tolerance=0 fixes the count.
    from repro.core.crh import CRH
    from repro.core.truth_discovery import ConvergencePolicy

    policy = ConvergencePolicy(max_iterations=iterations, tolerance=0.0)
    plain = CRH(convergence=policy).discover(SensingDataset.from_matrix(matrix))
    affine = CRH(convergence=policy).discover(SensingDataset.from_matrix(3 * matrix + 7))
    assert plain.iterations == affine.iterations == iterations
    for task, truth in plain.truths.items():
        assert affine.truths[task] == pytest.approx(3 * truth + 7, abs=1e-9)


@given(
    st.lists(
        st.lists(st.one_of(st.none(), st.floats(-100, 100)), min_size=3, max_size=3),
        max_size=4,
    ),
    st.lists(st.one_of(st.none(), st.floats(-100, 100)), min_size=3, max_size=3),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_clone_keeps_group_value_and_lowers_its_eq4_weight(legit, fabricated, clones):
    # A Sybil group whose accounts all claim the same fabricated value:
    # one more clone must not move its Eq. 3 value under any aggregation,
    # and must cut its Eq. 4 weight 1 - |g_k|/|U_j| on every task another
    # group answered (on the others the weight stays 0).
    from repro.core.framework import GROUP_AGGREGATIONS, SybilResistantTruthDiscovery

    assume(any(v is not None for v in fabricated))
    legit_ids = [f"u{i}" for i in range(len(legit))]
    tasks = [f"T{j + 1}" for j in range(3)]

    def run(n_clones, aggregation):
        sybil_ids = [f"s{c}" for c in range(n_clones)]
        rows = legit + [fabricated] * n_clones
        matrix = [[np.nan if v is None else v for v in row] for row in rows]
        dataset = SensingDataset.from_matrix(matrix, account_ids=legit_ids + sybil_ids)
        grouping = Grouping.from_groups([[u] for u in legit_ids] + [sybil_ids])
        result = SybilResistantTruthDiscovery(aggregation=aggregation).discover(
            dataset, grouping=grouping
        )
        return result, result.grouping.group_index_of("s0")

    for aggregation in GROUP_AGGREGATIONS:
        (before, k0), (after, k1) = run(clones, aggregation), run(clones + 1, aggregation)
        for j, value in enumerate(fabricated):
            if value is None:
                continue
            task = tasks[j]
            assert before.group_values[task][k0] == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert after.group_values[task][k1] == pytest.approx(
                before.group_values[task][k0], rel=1e-12, abs=1e-12
            )
            weight_before = before.initial_group_weights[task][k0]
            weight_after = after.initial_group_weights[task][k1]
            if any(row[j] is not None for row in legit):
                assert weight_after < weight_before
            else:
                assert weight_after == weight_before == 0.0


# ----------------------------------------------------------------------
# AG-TS (Eq. 6) metamorphic properties
# ----------------------------------------------------------------------


@st.composite
def task_sets(draw):
    """2-8 accounts' task sets over 1-8 tasks (each account claims one or more)."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(2, 8))
    sets = [
        draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m)) for _ in range(n)
    ]
    return m, sets


def _taskset_dataset(m, sets, names, extra_tasks=0):
    tasks = [Task(f"T{j}") for j in range(m + extra_tasks)]
    observations = [
        Observation(name, f"T{j}", float(j), float(j))
        for name, claimed in zip(names, sets)
        for j in sorted(claimed)
    ]
    return SensingDataset(tasks, observations)


def _rho_between_scores(m, sets, data):
    """A threshold strictly between two Eq. 6 scores (or beyond them all).

    Every score is an integer over ``m``; the threshold is a half-integer
    over ``m``, so no score sits near it and the strict comparison cannot
    flip on rounding.
    """
    numerators = set()
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            together = len(sets[a] & sets[b])
            alone = len(sets[a] ^ sets[b])
            numerators.add((together - 2 * alone) * (together + alone))
    ordered = sorted(numerators)
    cuts = [ordered[0] - 0.5] + [x + 0.5 for x in ordered]
    return data.draw(st.sampled_from(cuts)) / m


def _as_sets(grouping):
    return {frozenset(group) for group in grouping.groups}


@given(task_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_agts_relabelled_accounts_give_relabelled_groups(case, data):
    from repro.core.grouping import TaskSetGrouper

    m, sets = case
    names = [f"a{i}" for i in range(len(sets))]
    renamed = data.draw(st.permutations(names))
    rho = _rho_between_scores(m, sets, data)
    grouper = TaskSetGrouper(threshold=rho)
    before = grouper.group(_taskset_dataset(m, sets, names))
    after = grouper.group(_taskset_dataset(m, sets, renamed))
    rename = dict(zip(names, renamed))
    assert _as_sets(after) == {frozenset(rename[a] for a in g) for g in _as_sets(before)}


@given(task_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_agts_unclaimed_task_scales_affinities_by_m_over_m_plus_1(case, data):
    # A task nobody claimed leaves T_ij and L_ij alone and raises m by one,
    # so every Eq. 6 affinity scales by m / (m + 1): the grouping at
    # rho * m / (m + 1) is the grouping at rho.
    from repro.core.grouping import TaskSetGrouper

    m, sets = case
    names = [f"a{i}" for i in range(len(sets))]
    rho = _rho_between_scores(m, sets, data)
    before = TaskSetGrouper(threshold=rho).group(_taskset_dataset(m, sets, names))
    after = TaskSetGrouper(threshold=rho * m / (m + 1)).group(
        _taskset_dataset(m, sets, names, extra_tasks=1)
    )
    assert _as_sets(after) == _as_sets(before)


@given(task_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_agts_copied_task_set_joins_its_group_above_rho(case, data):
    # A copy of account i's task set scores T_ij = |T_i|, L_ij = 0, so
    # |T_i|^2 / m, against i, and what i scores against everyone else.  It
    # joins i's group when that score beats rho or i has a neighbour; else
    # it stays alone.  rho is either half-way between scores or exactly the
    # copy's score, where the strict comparison must leave the edge out.
    from repro.core.grouping import TaskSetGrouper

    m, sets = case
    names = [f"a{k}" for k in range(len(sets))]
    i = data.draw(st.integers(0, len(sets) - 1))
    copied = sets + [sets[i]]
    score = len(sets[i]) ** 2 / m
    rho = score if data.draw(st.booleans()) else _rho_between_scores(m, copied, data)
    grouper = TaskSetGrouper(threshold=rho)
    before = _as_sets(grouper.group(_taskset_dataset(m, sets, names)))
    after = _as_sets(grouper.group(_taskset_dataset(m, copied, names + ["copy"])))
    home = next(group for group in before if names[i] in group)
    if score > rho or len(home) > 1:
        assert after == (before - {home}) | {home | {"copy"}}
    else:
        assert after == before | {frozenset({"copy"})}


def _refines(fine, coarse):
    """Every group of ``fine`` lies inside one group of ``coarse``."""
    return fine.accounts == coarse.accounts and all(
        any(group <= other for other in _as_sets(coarse)) for group in _as_sets(fine)
    )


@given(task_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_agts_raising_rho_refines_the_partition(case, data):
    # An Eq. 6 edge needs a score strictly above rho, so the edges at a
    # higher rho are a subset of those at a lower one.
    from repro.core.grouping import TaskSetGrouper

    m, sets = case
    dataset = _taskset_dataset(m, sets, [f"a{i}" for i in range(len(sets))])
    low, high = sorted([_rho_between_scores(m, sets, data) for _ in range(2)])
    coarse = TaskSetGrouper(threshold=low).group(dataset)
    fine = TaskSetGrouper(threshold=high).group(dataset)
    assert _refines(fine, coarse)


@st.composite
def hourly_trajectories(draw):
    """2-6 accounts, each claiming 1-5 of 5 tasks at whole hours.

    Task indexes and hour timestamps are integers, so every Eq. 8 score
    (a sum of two raw DTW costs) is an integer.
    """
    accounts = []
    for _ in range(draw(st.integers(2, 6))):
        tasks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
        hours = draw(st.lists(st.integers(0, 6), min_size=len(tasks), max_size=len(tasks)))
        accounts.append(list(zip(tasks, hours)))
    return accounts


@given(hourly_trajectories(), st.data())
@settings(max_examples=100, deadline=None)
def test_agtr_lowering_phi_refines_the_partition(accounts, data):
    # An Eq. 8 edge needs a score strictly below phi, so the edges at a
    # lower phi are a subset of those at a higher one.  Both thresholds sit
    # half-way between integer scores, away from every pair's score.
    from repro.core.grouping import TrajectoryGrouper
    from repro.core.grouping.trajectory import trajectory_dissimilarity_matrix

    observations = [
        Observation(f"a{i}", f"T{task}", float(task), 3600.0 * hour)
        for i, claims in enumerate(accounts)
        for task, hour in claims
    ]
    dataset = SensingDataset([Task(f"T{j}") for j in range(5)], observations)
    _, matrix = trajectory_dissimilarity_matrix(dataset)
    scores = matrix[np.triu_indices(len(matrix), 1)]
    assert (scores == np.round(scores)).all()
    cuts = [scores.min() - 0.5] + [s + 0.5 for s in sorted(set(scores.tolist()))]
    low, high = sorted(data.draw(st.sampled_from(cuts)) for _ in range(2))
    fine = TrajectoryGrouper(threshold=low).group(dataset)
    coarse = TrajectoryGrouper(threshold=high).group(dataset)
    assert _refines(fine, coarse)
