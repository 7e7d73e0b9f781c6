"""Independent checks of the program's outputs, run on every pass.

Nothing here calls the program's algorithms: each check recomputes what
it needs from the benchmark's own raw inputs (the observation list, the
label triples) with plain numpy/scipy, and compares against properties
the method must have.  No check compares against a stored copy of an
earlier output.

A failed check raises :class:`CheckFailed`; the runner counts the
operation as failed and carries on.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

#: The numerical floor of the paper's weight and Eq. 3 formulas (a
#: distance or deviation of exactly zero is treated as this value).
EPS = 1e-12

#: Tolerance of every floating-point identity checked here.
TOL = 1e-9


class CheckFailed(Exception):
    """An output violated a property it must have."""


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))


# ----------------------------------------------------------------------
# Claims, compiled by the benchmark itself
# ----------------------------------------------------------------------


class Claims:
    """The raw observation list as parallel arrays (accounts, tasks sorted)."""

    def __init__(self, observations: Sequence) -> None:
        self.accounts: Tuple[str, ...] = tuple(sorted({o.account_id for o in observations}))
        self.tasks: Tuple[str, ...] = tuple(sorted({o.task_id for o in observations}))
        row = {a: i for i, a in enumerate(self.accounts)}
        col = {t: j for j, t in enumerate(self.tasks)}
        self.rows = np.array([row[o.account_id] for o in observations], dtype=np.intp)
        self.cols = np.array([col[o.task_id] for o in observations], dtype=np.intp)
        self.values = np.array([o.value for o in observations], dtype=float)
        self.times = np.array([o.timestamp for o in observations], dtype=float)
        self.n_rows = len(self.accounts)
        self.n_cols = len(self.tasks)

    def task_ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        lo = np.full(self.n_cols, np.inf)
        hi = np.full(self.n_cols, -np.inf)
        np.minimum.at(lo, self.cols, self.values)
        np.maximum.at(hi, self.cols, self.values)
        return lo, hi


def _spreads(values: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """CRH's per-task normalizer: claim std, 1.0 where undefined or ~0."""
    counts = np.bincount(cols, minlength=n_cols)
    safe = np.maximum(counts, 1)
    means = np.bincount(cols, weights=values, minlength=n_cols) / safe
    deviation = values - means[cols]
    std = np.sqrt(np.bincount(cols, weights=deviation * deviation, minlength=n_cols) / safe)
    return np.where((counts > 0) & (std >= EPS), std, 1.0)


def _log_weights(distances: np.ndarray) -> np.ndarray:
    """Eq. 1 with CRH's functional: w_i = max(0, log(sum d / d_i))."""
    d = np.maximum(distances, EPS)
    total = d.sum()
    if total <= 0:
        return np.ones_like(d)
    return np.maximum(np.log(total / d), 0.0)


def _check_eq1_eq2(
    what: str,
    values: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    n_rows: int,
    n_cols: int,
    weights: np.ndarray,
    truths: np.ndarray,
    previous: np.ndarray,
) -> None:
    """Eq. 2 under the returned weights; Eq. 1 from the previous truths."""
    claim_w = weights[rows]
    mass = np.zeros(n_cols)
    num = np.zeros(n_cols)
    np.add.at(mass, cols, claim_w)
    np.add.at(num, cols, claim_w * values)
    usable = mass > 0
    expected = num[usable] / mass[usable]
    bad = ~_close(truths[usable], expected)
    if bad.any():
        j = int(np.flatnonzero(usable)[np.argmax(bad)])
        raise CheckFailed(
            f"{what}: truth of task #{j} is {truths[j]!r}, but Eq. 2 under the "
            f"returned weights gives {num[j] / mass[j]!r}"
        )
    deviation = values - previous[cols]
    distances = np.zeros(n_rows)
    np.add.at(distances, rows, deviation * deviation / _spreads(values, cols, n_cols)[cols])
    expected_w = _log_weights(distances)
    bad = ~_close(weights, expected_w)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(
            f"{what}: weight of source #{i} is {weights[i]!r}, but Eq. 1 from the "
            f"previous iteration's truths gives {expected_w[i]!r}"
        )


def _previous_truths(history: Sequence[Sequence[float]], initial: np.ndarray) -> np.ndarray:
    """Truths the last weight update was computed from."""
    if len(history) >= 2:
        return np.asarray(history[-2], dtype=float)
    return initial


def check_crh(claims: Claims, result) -> None:
    """Algorithm 1 (CRH): Eq. 2 and Eq. 1 hold at the returned state."""
    truths = np.array([result.truths[t] for t in claims.tasks])
    weights = np.array([result.weights[a] for a in claims.accounts])
    counts = np.bincount(claims.cols, minlength=claims.n_cols)
    means = np.bincount(claims.cols, weights=claims.values, minlength=claims.n_cols) / counts
    _check_eq1_eq2(
        "CRH",
        claims.values,
        claims.rows,
        claims.cols,
        claims.n_rows,
        claims.n_cols,
        weights,
        truths,
        _previous_truths(result.truth_history, means),
    )


def check_framework(claims: Claims, result) -> None:
    """Algorithm 2: the grouped data follow the repaired Eq. 3, the
    initial truths Eq. 4/5, and the returned state Eq. 2 and Eq. 1."""
    groups = result.grouping.groups
    check_partition(result.grouping, claims.accounts)
    group_of = {a: gi for gi, members in enumerate(groups) for a in members}
    claim_group = np.array([group_of[a] for a in claims.accounts], dtype=np.intp)[claims.rows]

    # Eq. 3 (inverse-deviation weighted mean) per (group, task) cell.
    keys = claim_group * claims.n_cols + claims.cols
    cell_keys, inverse, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    cell_rows, cell_cols = np.divmod(cell_keys, claims.n_cols)
    sums = np.bincount(inverse, weights=claims.values)
    deviation = np.abs(claims.values - (sums / sizes)[inverse])
    w = 1.0 / (deviation + EPS)
    weighted = np.bincount(inverse, weights=w * claims.values) / np.bincount(inverse, weights=w)
    cell_values = np.where(sizes == 1, sums, weighted)
    returned = np.array(
        [
            result.group_values[claims.tasks[j]][int(g)]
            for g, j in zip(cell_rows, cell_cols)
        ]
    )
    bad = ~_close(returned, cell_values)
    if bad.any():
        c = int(np.argmax(bad))
        raise CheckFailed(
            f"framework: group {int(cell_rows[c])} task {claims.tasks[cell_cols[c]]} "
            f"grouped value {returned[c]!r} is not Eq. 3's {cell_values[c]!r}"
        )

    # Eq. 4 initial weights and Eq. 5 initial truths.
    claimants = np.bincount(claims.cols, minlength=claims.n_cols)
    w4 = 1.0 - sizes / claimants[cell_cols]
    mass = np.bincount(cell_cols, weights=w4, minlength=claims.n_cols)
    num = np.bincount(cell_cols, weights=w4 * cell_values, minlength=claims.n_cols)
    plain = np.bincount(cell_cols, weights=cell_values, minlength=claims.n_cols) / np.bincount(
        cell_cols, minlength=claims.n_cols
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        initial = np.where(mass > EPS, num / mass, plain)

    truths = np.array([result.truths[t] for t in claims.tasks])
    weights = np.array([result.group_weights[g] for g in range(len(groups))])
    _check_eq1_eq2(
        "framework",
        cell_values,
        cell_rows.astype(np.intp),
        cell_cols.astype(np.intp),
        len(groups),
        claims.n_cols,
        weights,
        truths,
        _previous_truths(result.truth_history, initial),
    )


def check_streaming(claims: Claims, truths: Mapping[str, float]) -> None:
    """Every streaming truth lies within its task's claimed range."""
    lo, hi = claims.task_ranges()
    index = {t: j for j, t in enumerate(claims.tasks)}
    if set(truths) != set(claims.tasks):
        raise CheckFailed("streaming: truths do not cover exactly the claimed tasks")
    for task, value in truths.items():
        j = index[task]
        if not (lo[j] - TOL <= value <= hi[j] + TOL):
            raise CheckFailed(
                f"streaming: truth {value!r} of {task} lies outside its claims "
                f"[{lo[j]!r}, {hi[j]!r}]"
            )


# ----------------------------------------------------------------------
# Categorical truth discovery
# ----------------------------------------------------------------------


def _plurality(labels: List[Hashable]) -> Hashable:
    counts: Dict[Hashable, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], repr(label)))


def check_categorical(
    triples: Sequence[Tuple[str, str, Hashable]], grouping, result
) -> None:
    """Every label truth is a claimed label and the weighted majority of
    the group votes under the returned weights."""
    source_of = {
        a: f"g{gi}" for gi, members in enumerate(grouping.groups) for a in members
    }
    per_cell: Dict[Tuple[str, str], List[Hashable]] = {}
    claimed: Dict[str, set] = {}
    for account, task, label in triples:
        per_cell.setdefault((task, source_of.get(account, account)), []).append(label)
        claimed.setdefault(task, set()).add(label)
    if set(result.truths) != set(claimed):
        raise CheckFailed("categorical: truths do not cover exactly the claimed tasks")
    totals: Dict[str, Dict[Hashable, float]] = {}
    for (task, source), labels in per_cell.items():
        vote = _plurality(labels)
        by_label = totals.setdefault(task, {})
        by_label[vote] = by_label.get(vote, 0.0) + result.weights[source]
    for task, truth in result.truths.items():
        if truth not in claimed[task]:
            raise CheckFailed(f"categorical: truth {truth!r} of {task} was never claimed")
        best = max(totals[task].values())
        if totals[task].get(truth, 0.0) < best - TOL * max(1.0, best):
            raise CheckFailed(
                f"categorical: truth {truth!r} of {task} carries weight "
                f"{totals[task].get(truth, 0.0)!r}, below the majority's {best!r}"
            )


# ----------------------------------------------------------------------
# Account groupings
# ----------------------------------------------------------------------


def check_partition(grouping, accounts: Iterable[str]) -> None:
    """The groups are disjoint, non-empty and cover exactly ``accounts``."""
    seen: set = set()
    for members in grouping.groups:
        if not members:
            raise CheckFailed("grouping has an empty group")
        for account in members:
            if account in seen:
                raise CheckFailed(f"account {account!r} is in two groups")
            seen.add(account)
    expected = set(accounts)
    if seen != expected:
        raise CheckFailed(
            f"grouping covers {len(seen)} accounts, expected exactly {len(expected)} "
            f"({len(seen - expected)} extra, {len(expected - seen)} missing)"
        )


def _components(names: Sequence[str], i: np.ndarray, j: np.ndarray) -> set:
    n = len(names)
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    groups: Dict[int, List[str]] = {}
    for name, label in zip(names, labels):
        groups.setdefault(int(label), []).append(name)
    return {frozenset(members) for members in groups.values()}


def _compare_groupings(what: str, grouping, expected: set) -> None:
    got = set(grouping.groups)
    if got != expected:
        wrong = sorted(min(g) for g in got ^ expected)[:3]
        raise CheckFailed(
            f"{what}: grouping differs from the recomputed components "
            f"({len(got)} vs {len(expected)} groups; first differing groups at {wrong})"
        )


def check_agts(claims: Claims, grouping, rho: float, m: int) -> int:
    """AG-TS equals the components of {A_ij > rho}, with Eq. 6 recomputed
    from a 0/1 membership matrix over ``m`` published tasks.  Returns the
    edge count."""
    membership = np.zeros((claims.n_rows, claims.n_cols))
    membership[claims.rows, claims.cols] = 1.0
    together = membership @ membership.T
    sizes = membership.sum(axis=1)
    alone = sizes[:, None] + sizes[None, :] - 2.0 * together
    affinity = (together - 2.0 * alone) * (together + alone) / m
    i, j = np.nonzero(np.triu(affinity > rho, 1))
    _compare_groupings("AG-TS", grouping, _components(claims.accounts, i, j))
    return len(i)


def plain_dtw(a: Sequence[float], b: Sequence[float]) -> float:
    """Raw accumulated DTW cost by the textbook dynamic program."""
    inf = math.inf
    previous = [0.0] + [inf] * len(b)
    for x in a:
        current = [inf] * (len(b) + 1)
        for k, y in enumerate(b, start=1):
            current[k] = (x - y) ** 2 + min(previous[k - 1], previous[k], current[k - 1])
        previous = current
    return previous[-1]


def trajectories(
    claims: Claims, timestamp_scale: float
) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    """Per account (sorted): task-index series X and rescaled time series Y,
    in submission order (ties broken by task id)."""
    order = np.lexsort((claims.cols, claims.times, claims.rows))
    out: List[Tuple[List[float], List[float]]] = [([], []) for _ in claims.accounts]
    for k in order:
        xs, ys = out[claims.rows[k]]
        xs.append(float(claims.cols[k]))
        ys.append(float(claims.times[k]) / timestamp_scale)
    return [(tuple(xs), tuple(ys)) for xs, ys in out]


def check_agtr(
    claims: Claims,
    grouping,
    phi: float,
    timestamp_scale: float,
    rng: np.random.Generator,
    samples: int,
) -> int:
    """AG-TR equals the components of {D_ij < phi} (Eq. 8 by plain DTW).

    With integer task indexes, a pair whose task series differ anywhere
    aligns some unequal pair and costs at least 1, so for ``phi <= 1``
    every edge joins accounts with identical task series: those pairs
    are scored exactly.  A seeded sample of the other pairs is scored by
    the full plain DTW and must fall on the non-edge side of ``phi``.
    Returns the edge count.
    """
    if phi > 1.0:
        raise CheckFailed(f"AG-TR check needs phi <= 1, got {phi}")
    series = trajectories(claims, timestamp_scale)
    buckets: Dict[Tuple[float, ...], List[int]] = {}
    for index, (xs, _) in enumerate(series):
        buckets.setdefault(xs, []).append(index)
    edges_i: List[int] = []
    edges_j: List[int] = []
    for members in buckets.values():
        for p, a in enumerate(members):
            for b in members[p + 1 :]:
                # Identical task series: their DTW is 0 on the diagonal path.
                if plain_dtw(series[a][1], series[b][1]) < phi:
                    edges_i.append(a)
                    edges_j.append(b)
    _compare_groupings(
        "AG-TR",
        grouping,
        _components(claims.accounts, np.array(edges_i, dtype=np.intp), np.array(edges_j, dtype=np.intp)),
    )
    n = len(series)
    if n >= 2:
        for _ in range(samples):
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            if series[a][0] == series[b][0]:
                continue
            score = plain_dtw(series[a][0], series[b][0]) + plain_dtw(
                series[a][1], series[b][1]
            )
            if score < phi:
                raise CheckFailed(
                    f"AG-TR: accounts {claims.accounts[a]} and {claims.accounts[b]} "
                    f"score {score!r} < phi but have different task series"
                )
    return len(edges_i)


# ----------------------------------------------------------------------
# Quality metrics, computed by the benchmark itself
# ----------------------------------------------------------------------


def mean_absolute_error(truths: Mapping[str, float], ground: Mapping[str, float]) -> float:
    """Mean |truth - ground truth| over the tasks that received a truth."""
    tasks = sorted(truths)
    return float(np.mean([abs(truths[t] - ground[t]) for t in tasks]))


def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Hubert-Arabie ARI of two labelings of the same items."""
    a = np.unique(np.asarray(labels_a), return_inverse=True)[1]
    b = np.unique(np.asarray(labels_b), return_inverse=True)[1]
    n = len(a)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(x: np.ndarray) -> float:
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows = pairs(table.sum(axis=1))
    cols = pairs(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1) / 2) if n > 1 else 0.0
    maximum = (rows + cols) / 2
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def grouping_ari(grouping, reference, accounts: Sequence[str]) -> float:
    """ARI of ``grouping`` against ``reference`` over ``accounts``."""
    def labels(g) -> List[int]:
        of = {a: gi for gi, members in enumerate(g.groups) for a in members}
        return [of[a] for a in accounts]

    return adjusted_rand_index(labels(grouping), labels(reference))
