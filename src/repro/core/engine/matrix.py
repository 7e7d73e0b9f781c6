"""The compiled claim matrix: a CSR-style view of a sensing campaign.

Every truth discovery algorithm in this library consumes the same sparse
structure — *who claimed what value for which task* — as flat index
arrays

* ``row_idx[k]`` — the source (account or group) of claim ``k``;
* ``col_idx[k]`` — the task of claim ``k``;
* ``values[k]`` — the datum ``d_j^i``;

sorted by ``(row, col)``, so every per-source or per-task aggregate is a
segment-sum (``np.bincount``) instead of a Python loop.  A dataset's
matrix is compiled from its claim store at most once.  Per-task sums are
taken over :meth:`ClaimMatrix.content_claims`, an order set by the claims
and not by how the rows are numbered, so renaming or reordering the
accounts leaves every truth bit-identical.  The iteration
kernels in :mod:`repro.core.engine.kernels` and the shared convergence
loop in :mod:`repro.core.engine.loop` operate exclusively on this layout.

Row compaction (:func:`compact_by_groups`) re-expresses the matrix with
rows = groups: the data-grouping step of Algorithm 2 (Eq. 3) becomes one
aggregation over ``(group, task)`` cells, and the Eq. 4 initial weights
fall out of the same cell counts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._nputil import EPS
from repro.core.dataset import SensingDataset
from repro.core.engine.kernels import column_spreads
from repro.core.types import TaskId


class ClaimMatrix:
    """Immutable sparse claim structure shared by all iteration kernels.

    Parameters
    ----------
    row_idx, col_idx, values:
        Parallel per-claim arrays.  They are re-sorted to the canonical
        ``(row, col)`` order on construction, so callers may pass claims
        in any order.
    n_rows, n_cols:
        Matrix dimensions.  Rows or columns without claims are legal
        (an account-grouping may contain claim-less groups; a campaign
        may publish unanswered tasks).
    row_labels, col_labels:
        Identifiers for rows (account ids or group indices as strings)
        and columns (task ids), used to key result mappings.
    """

    __slots__ = (
        "row_idx",
        "col_idx",
        "values",
        "n_rows",
        "n_cols",
        "row_labels",
        "col_labels",
        "_col_counts",
        "_spreads",
        "_content_claims",
    )

    def __init__(
        self,
        row_idx: np.ndarray,
        col_idx: np.ndarray,
        values: np.ndarray,
        n_rows: int,
        n_cols: int,
        row_labels: Tuple[str, ...],
        col_labels: Tuple[TaskId, ...],
    ):
        row_idx = np.asarray(row_idx, dtype=np.intp)
        col_idx = np.asarray(col_idx, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (len(row_idx) == len(col_idx) == len(values)):
            raise ValueError("row_idx, col_idx and values must be parallel arrays")
        order = np.lexsort((col_idx, row_idx))
        self.row_idx = row_idx[order]
        self.col_idx = col_idx[order]
        self.values = values[order]
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self._col_counts: Optional[np.ndarray] = None
        self._spreads: Optional[np.ndarray] = None
        self._content_claims: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: SensingDataset) -> "ClaimMatrix":
        """The dataset's claims as a matrix (rows = accounts, cols = tasks).

        Row order is the dataset's sorted account order and column order
        its sorted task order — identical to ``dataset.to_matrix()``.  The
        matrix is compiled from the dataset's claim arrays at most once
        per dataset and shared by every caller, so its arrays are
        read-only.
        """
        matrix = dataset._compiled
        if matrix is None:
            matrix = cls(
                dataset._rows,
                dataset._cols,
                dataset._values,
                n_rows=len(dataset.accounts),
                n_cols=len(dataset.tasks),
                row_labels=tuple(str(a) for a in dataset.accounts),
                col_labels=dataset.tasks,
            )
            for array in (matrix.row_idx, matrix.col_idx, matrix.values):
                array.flags.writeable = False
            dataset._compiled = matrix
        return matrix

    # ------------------------------------------------------------------
    # Cached per-column structure
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of claims."""
        return len(self.values)

    @property
    def claim_counts_by_col(self) -> np.ndarray:
        """``|U_j|``: number of claims per column."""
        if self._col_counts is None:
            self._col_counts = np.bincount(self.col_idx, minlength=self.n_cols)
        return self._col_counts

    @property
    def answered_cols(self) -> np.ndarray:
        """Boolean mask of columns with at least one claim."""
        return self.claim_counts_by_col > 0

    @property
    def claim_counts_by_row(self) -> np.ndarray:
        """Number of claims per row (``n_i`` of CATD / GTM)."""
        return np.bincount(self.row_idx, minlength=self.n_rows)

    @property
    def spreads(self) -> np.ndarray:
        """Per-column claim standard deviation with a floor of 1.0.

        The CRH normalizer: degenerate columns (no claims, a single
        claim, or an exactly constant claim set) get spread 1.0 so the
        squared distance passes through unscaled.
        """
        if self._spreads is None:
            values, _, col_idx = self.content_claims()
            self._spreads = column_spreads(values, col_idx, self.n_cols)
        return self._spreads

    def content_claims(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, row_idx, col_idx)`` with the rows in the order of their claims.

        Rows are sorted by their ``(col, value)`` claim sequences, compared
        as raw bytes; a row's claims stay in column order.  Floating-point
        addition is not associative, so a per-column sum depends on the
        order of its terms: summed in this order it depends only on which
        claims the matrix holds, not on the row numbering.  Rows that tie
        hold identical claims, so their relative order changes no sum.
        """
        if self._content_claims is None:
            counts = self.claim_counts_by_row
            indptr = np.concatenate(([0], np.cumsum(counts)))
            records = np.empty((self.nnz, 2), dtype=np.int64)
            records[:, 0] = self.col_idx
            records[:, 1] = self.values.view(np.int64)
            blob = records.tobytes()
            bounds = (indptr * records.itemsize * 2).tolist()
            keys = [blob[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
            rows = np.array(
                sorted(range(self.n_rows), key=keys.__getitem__), dtype=np.intp
            )
            lengths = counts[rows]
            starts = np.cumsum(lengths) - lengths
            order = np.arange(self.nnz) + np.repeat(indptr[rows] - starts, lengths)
            claims = (self.values[order], self.row_idx[order], self.col_idx[order])
            for array in claims:
                array.flags.writeable = False
            self._content_claims = claims
        return self._content_claims

    # ------------------------------------------------------------------
    # Column statistics
    # ------------------------------------------------------------------

    def column_means(self) -> np.ndarray:
        """Per-column claim mean; ``NaN`` for claim-less columns."""
        counts = self.claim_counts_by_col
        values, _, col_idx = self.content_claims()
        sums = np.bincount(col_idx, weights=values, minlength=self.n_cols)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
        return np.where(counts > 0, means, np.nan)

    def column_medians(self) -> np.ndarray:
        """Per-column claim median; ``NaN`` for claim-less columns."""
        return _segment_medians(self.values, self.col_idx, self.claim_counts_by_col)


def _segment_medians(
    values: np.ndarray, segment: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Median of each segment's values; ``NaN`` for empty segments.

    ``segment[k]`` is the segment of ``values[k]`` and ``counts`` the
    size of every segment.  Sorted by ``(segment, value)``, each segment's
    median is the mean of its middle pair — one element twice for odd
    sizes — which is what ``np.median`` returns, bit for bit.
    """
    if len(values) == 0:
        return np.full(len(counts), np.nan)
    by_value = values[np.lexsort((values, segment))]
    starts = np.cumsum(counts) - counts
    # An empty segment reads a neighbour's slot; the mask below drops it.
    last = len(values) - 1
    mid_lo = np.clip(starts + (counts - 1) // 2, 0, last)
    mid_hi = np.minimum(starts + counts // 2, last)
    return np.where(counts > 0, 0.5 * (by_value[mid_lo] + by_value[mid_hi]), np.nan)


class GroupedClaims:
    """A claim matrix compacted to group rows, plus the Eq. 4 weights.

    Attributes
    ----------
    matrix:
        One claim per ``(group, task)`` cell — the grouped data
        ``d~_j^k`` of Eq. 3, rows indexed by group.
    initial_weights:
        Eq. 4 weight ``w~_k = 1 - |g_k ∩ U_j| / |U_j|`` per cell,
        parallel to ``matrix.values``.
    cell_sizes:
        Number of account-level claims folded into each cell.
    """

    __slots__ = ("matrix", "initial_weights", "cell_sizes")

    def __init__(
        self,
        matrix: ClaimMatrix,
        initial_weights: np.ndarray,
        cell_sizes: np.ndarray,
    ):
        self.matrix = matrix
        self.initial_weights = initial_weights
        self.cell_sizes = cell_sizes


def compact_by_groups(
    matrix: ClaimMatrix,
    row_to_group: Sequence[int],
    n_groups: int,
    aggregation: str,
) -> GroupedClaims:
    """Algorithm 2 lines 2–6 as a row compaction of the claim matrix.

    Claims sharing a ``(group, task)`` cell collapse into one grouped
    claim via the named ``aggregation``; the Eq. 4 initial weight of each
    cell is computed from the same cell counts.  Every strategy runs
    vectorized over all cells at once.

    Parameters
    ----------
    matrix:
        Account-level claim matrix.
    row_to_group:
        Group index per matrix row (a :class:`~repro.core.types.Grouping`
        projected onto the row order).
    n_groups:
        Total number of groups; claim-less groups keep empty rows so the
        weight vector of the iteration covers every group.
    aggregation:
        The Eq. 3 strategy: ``"inverse_deviation"``, ``"mean"`` or
        ``"median"`` (the keys of
        :data:`repro.core.framework.GROUP_AGGREGATIONS`).
    """
    row_to_group = np.asarray(row_to_group, dtype=np.intp)
    group_of_claim = row_to_group[matrix.row_idx]
    keys = group_of_claim * matrix.n_cols + matrix.col_idx
    unique_keys, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    cell_group, cell_col = np.divmod(unique_keys, matrix.n_cols)
    cell_values = _aggregate_cells(matrix.values, inverse, counts, aggregation)

    # Eq. 4: the more accounts a group burned on a task, the less trust.
    claimants_per_col = matrix.claim_counts_by_col
    initial_weights = 1.0 - counts / claimants_per_col[cell_col]

    grouped = ClaimMatrix(
        cell_group,
        cell_col,
        cell_values,
        n_rows=n_groups,
        n_cols=matrix.n_cols,
        row_labels=tuple(str(g) for g in range(n_groups)),
        col_labels=matrix.col_labels,
    )
    # np.unique returns cells sorted by key = (group, col) — already the
    # canonical layout, so the constructor's lexsort was a no-op and the
    # parallel arrays still line up with grouped.values.
    return GroupedClaims(grouped, initial_weights, counts)


def _aggregate_cells(
    values: np.ndarray,
    inverse: np.ndarray,
    counts: np.ndarray,
    aggregation: str,
) -> np.ndarray:
    """Collapse each cell's claim values through the named strategy."""
    if aggregation == "median":
        return _segment_medians(values, inverse, counts)
    n_cells = len(counts)
    sums = np.bincount(inverse, weights=values, minlength=n_cells)
    if aggregation == "mean":
        return sums / counts
    if aggregation == "inverse_deviation":
        centers = sums / counts
        weights = 1.0 / (np.abs(values - centers[inverse]) + EPS)
        weighted = np.bincount(inverse, weights=weights * values, minlength=n_cells)
        mass = np.bincount(inverse, weights=weights, minlength=n_cells)
        # Single-claim cells reduce to the claim itself, exactly.
        return np.where(counts == 1, sums, weighted / mass)
    raise ValueError(f"unknown aggregation {aggregation!r}")
