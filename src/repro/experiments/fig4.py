"""Fig. 4: the AG-TR walkthrough on the Table III example.

Computes the three matrices of the paper's figure — ``DTW(X_i, X_j)``
over the task series, ``DTW(Y_i, Y_j)`` over the (hour-scaled) timestamp
series, and their sum ``D_ij`` (Eq. 8) — then thresholds at ``phi = 1``
and reports the groups.

The paper's matrices use the *raw accumulated* DTW cost (e.g.
``DTW(X_1, X_2) = 2``), not the path-normalized Eq. 7 distance, and
timestamps on an hour scale (values ≪ 1); the harness follows both
conventions.  Expected grouping: ``{4', 4'', 4'''}, {1}, {2}, {3}`` —
AG-TR isolates the attacker with no false positives, improving on AG-TS
exactly as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.grouping.trajectory import (
    TrajectoryGrouper,
    trajectory_dissimilarity_matrix,
)
from repro.core.types import Grouping
from repro.experiments.paperdata import TABLE1_ACCOUNTS, paper_example_dataset
from repro.experiments.reporting import describe_groups, render_matrix
from repro.timeseries.dtw import dtw_costs


@dataclass(frozen=True)
class Fig4Result:
    """The AG-TR intermediate matrices and final grouping."""

    accounts: Tuple[str, ...]
    dtw_tasks: np.ndarray
    dtw_timestamps: np.ndarray
    dissimilarity: np.ndarray
    threshold: float
    grouping: Grouping

    def render(self) -> str:
        parts = [
            render_matrix(
                self.accounts, self.dtw_tasks, precision=2,
                title="Fig. 4(a) — DTW(X_i, X_j) over task series (raw cost)",
            ),
            render_matrix(
                self.accounts, self.dtw_timestamps, precision=4,
                title="Fig. 4(b) — DTW(Y_i, Y_j) over timestamp series (hours)",
            ),
            render_matrix(
                self.accounts, self.dissimilarity, precision=3,
                title="Fig. 4(c) — dissimilarity D_ij (Eq. 8)",
            ),
            f"Fig. 4(d) — groups with D_ij < {self.threshold:g}: "
            + describe_groups(self.grouping.groups),
        ]
        return "\n\n".join(parts)


def run_fig4(threshold: float = 1.0) -> Fig4Result:
    """AG-TR on the Table III example, with all intermediates exposed."""
    dataset = paper_example_dataset()
    accounts = TABLE1_ACCOUNTS
    trajectories = [dataset.trajectory(a) for a in accounts]
    # Paper convention: raw (unnormalized) DTW costs, timestamps in hours.
    n = len(accounts)
    rows, cols = np.triu_indices(n, k=1)
    xs = [x for x, _ in trajectories]
    ys = [y / 3600.0 for _, y in trajectories]
    dtw_tasks = np.zeros((n, n))
    dtw_times = np.zeros((n, n))
    dtw_tasks[rows, cols] = dtw_tasks[cols, rows] = dtw_costs(
        [xs[i] for i in rows], [xs[j] for j in cols]
    )
    dtw_times[rows, cols] = dtw_times[cols, rows] = dtw_costs(
        [ys[i] for i in rows], [ys[j] for j in cols]
    )
    _, dissimilarity = trajectory_dissimilarity_matrix(dataset, accounts=accounts)

    grouping = TrajectoryGrouper(threshold=threshold).group(dataset)
    return Fig4Result(
        accounts=accounts,
        dtw_tasks=dtw_tasks,
        dtw_timestamps=dtw_times,
        dissimilarity=dissimilarity,
        threshold=threshold,
        grouping=grouping,
    )
