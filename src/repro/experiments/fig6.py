"""Fig. 6: ARI of the three grouping methods across activeness settings.

Three panels (legitimate activeness 0.2 / 0.5 / 1.0), Sybil activeness on
the x-axis, ARI of AG-FP / AG-TS / AG-TR against the true accounts-per-
user partition on the y-axis.

Paper shapes to reproduce:

* AG-FP's ARI *decreases* as activeness grows (more same-model collisions
  among the busier population — in our simulation, the fingerprint signal
  is constant while the grouping task gets harder);
* AG-TS's and AG-TR's ARI *increase* with Sybil activeness (longer task
  sets / trajectories give the methods more to work with);
* AG-TR ≥ AG-TS (timestamps disambiguate identical task sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.experiments.ascii_chart import line_chart
from repro.experiments.reporting import banner, render_table
from repro.experiments.sweeps import (
    LEGIT_ACTIVENESS_PANELS,
    SYBIL_ACTIVENESS_LEVELS,
    CellResult,
    run_panels,
)


@dataclass(frozen=True)
class Fig6Result:
    """All panels of Fig. 6: ``panels[legit_activeness] = [cells...]``."""

    panels: Mapping[float, List[CellResult]]
    methods: Tuple[str, ...]

    @classmethod
    def from_panels(cls, panels: Mapping[float, List[CellResult]]) -> "Fig6Result":
        """The figure over an already-run grid (see ``run_panels``)."""
        return cls(panels=panels, methods=tuple(next(iter(panels.values()))[0].ari))

    def render(self) -> str:
        parts = []
        for legit, cells in sorted(self.panels.items()):
            rows = [
                [f"{cell.sybil_activeness:.1f}"]
                + [cell.ari[m][0] for m in self.methods]
                for cell in cells
            ]
            parts.append(
                render_table(
                    ["sybil activeness"] + list(self.methods),
                    rows,
                    precision=3,
                    title=banner(f"Fig. 6 — ARI, legitimate activeness = {legit:g}"),
                )
            )
            parts.append(
                line_chart(
                    {m: [cell.ari[m][0] for cell in cells] for m in self.methods},
                    x_labels=[f"{cell.sybil_activeness:.1f}" for cell in cells],
                    title=f"ARI vs sybil activeness (legit = {legit:g})",
                )
            )
        return "\n\n".join(parts)


def run_fig6(
    legit_levels: Sequence[float] = LEGIT_ACTIVENESS_PANELS,
    sybil_levels: Sequence[float] = SYBIL_ACTIVENESS_LEVELS,
    n_trials: int = 3,
    base_seed: int = 1000,
) -> Fig6Result:
    """Run the full ARI sweep of Fig. 6."""
    return Fig6Result.from_panels(
        run_panels(legit_levels, sybil_levels, n_trials=n_trials, base_seed=base_seed)
    )
