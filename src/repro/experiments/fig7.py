"""Fig. 7: MAE of CRH vs. the framework across activeness settings.

Three panels (legitimate activeness 0.2 / 0.5 / 1.0), Sybil activeness on
the x-axis, MAE on the y-axis for four methods: plain CRH and the
framework paired with each grouping method (TD-FP / TD-TS / TD-TR).

Paper shapes to reproduce:

* MAE decreases in legitimate activeness (more honest data per task) and
  increases in Sybil activeness (more fabricated data);
* CRH is the worst method everywhere — it has no Sybil defence;
* TD-TR is the best overall (it handles both attack types and has the
  fewest grouping false-positives), with TD-TS and TD-FP in between.
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

#: Display names: the framework paired with grouping method X is "TD-X".
_METHOD_RENAME = {"AG-FP": "TD-FP", "AG-TS": "TD-TS", "AG-TR": "TD-TR"}


@dataclass(frozen=True)
class Fig7Result:
    """All panels of Fig. 7: ``panels[legit_activeness] = [cells...]``."""

    panels: Mapping[float, List[CellResult]]
    methods: Tuple[str, ...]

    @classmethod
    def from_panels(cls, panels: Mapping[float, List[CellResult]]) -> "Fig7Result":
        """The figure over an already-run grid (see ``run_panels``)."""
        return cls(panels=panels, methods=tuple(next(iter(panels.values()))[0].mae))

    def render(self) -> str:
        display = ["CRH"] + [_METHOD_RENAME.get(m, f"TD-{m}") for m in self.methods]
        parts = []
        for legit, cells in sorted(self.panels.items()):
            rows = [
                [f"{cell.sybil_activeness:.1f}", cell.crh_mae[0]]
                + [cell.mae[m][0] for m in self.methods]
                for cell in cells
            ]
            parts.append(
                render_table(
                    ["sybil activeness"] + display,
                    rows,
                    precision=2,
                    title=banner(
                        f"Fig. 7 — MAE (dBm), legitimate activeness = {legit:g}"
                    ),
                )
            )
            chart_series = {"CRH": [cell.crh_mae[0] for cell in cells]}
            for method in self.methods:
                chart_series[_METHOD_RENAME.get(method, method)] = [
                    cell.mae[method][0] for cell in cells
                ]
            parts.append(
                line_chart(
                    chart_series,
                    x_labels=[f"{cell.sybil_activeness:.1f}" for cell in cells],
                    title=f"MAE vs sybil activeness (legit = {legit:g})",
                )
            )
        return "\n\n".join(parts)


def run_fig7(
    legit_levels: Sequence[float] = LEGIT_ACTIVENESS_PANELS,
    sybil_levels: Sequence[float] = SYBIL_ACTIVENESS_LEVELS,
    n_trials: int = 3,
    base_seed: int = 1000,
) -> Fig7Result:
    """Run the full MAE sweep of Fig. 7."""
    return Fig7Result.from_panels(
        run_panels(legit_levels, sybil_levels, n_trials=n_trials, base_seed=base_seed)
    )
