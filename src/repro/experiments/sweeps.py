"""Shared sweep engine for the evaluation figures (Figs. 6 and 7).

Both figures scan the same grid — legitimate-user activeness fixed per
panel at {0.2, 0.5, 1.0}, Sybil-attacker activeness swept along the
x-axis — over the paper's population (8 legitimate users, 2 Sybil
attackers × 5 accounts).  For every cell the engine builds ``n_trials``
independent scenarios and records, per grouping method:

* the ARI of the produced grouping against the true accounts-per-user
  partition (Fig. 6's metric), and
* the MAE of the framework run with that grouping (Fig. 7's metric),

plus the MAE of plain CRH (Fig. 7's baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.crh import CRH
from repro.core.framework import SybilResistantTruthDiscovery
from repro.core.grouping import (
    AccountGrouper,
    CombinedGrouper,
    FingerprintGrouper,
    TaskSetGrouper,
    TrajectoryGrouper,
)
from repro.metrics.accuracy import mean_absolute_error
from repro.ml.metrics import adjusted_rand_index
from repro.simulation.scenario import PaperScenarioConfig, build_scenario

#: Default x-axis of Figs. 6 and 7.
SYBIL_ACTIVENESS_LEVELS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)

#: The per-panel legitimate activeness settings.
LEGIT_ACTIVENESS_PANELS: Tuple[float, ...] = (0.2, 0.5, 1.0)


def default_groupers(include_combined: bool = False) -> Dict[str, AccountGrouper]:
    """The paper's three grouping methods (optionally plus the combined one)."""
    groupers: Dict[str, AccountGrouper] = {
        "AG-FP": FingerprintGrouper(),
        "AG-TS": TaskSetGrouper(),
        "AG-TR": TrajectoryGrouper(),
    }
    if include_combined:
        groupers["AG-COMB"] = CombinedGrouper(
            [FingerprintGrouper(), TrajectoryGrouper()], mode="union"
        )
    return groupers


@dataclass(frozen=True)
class CellResult:
    """Aggregated trials for one (legit activeness, Sybil activeness) cell.

    ``ari`` and ``mae`` map method name → (mean, std) over trials;
    ``crh_mae`` is the CRH baseline's (mean, std).
    """

    legit_activeness: float
    sybil_activeness: float
    n_trials: int
    ari: Mapping[str, Tuple[float, float]]
    mae: Mapping[str, Tuple[float, float]]
    crh_mae: Tuple[float, float]


def run_cell(
    legit_activeness: float,
    sybil_activeness: float,
    n_trials: int = 3,
    base_seed: int = 1000,
    groupers: Optional[Mapping[str, AccountGrouper]] = None,
) -> CellResult:
    """Run ``n_trials`` scenarios for one grid cell and aggregate.

    Trial *t* uses seed ``base_seed + t`` so cells are independent of the
    sweep order and reproducible in isolation.
    """
    if groupers is None:
        groupers = default_groupers()
    aris: Dict[str, List[float]] = {name: [] for name in groupers}
    maes: Dict[str, List[float]] = {name: [] for name in groupers}
    crh_maes: List[float] = []

    for trial in range(n_trials):
        rng = np.random.default_rng(base_seed + trial)
        scenario = build_scenario(
            PaperScenarioConfig(
                legit_activeness=legit_activeness,
                sybil_activeness=sybil_activeness,
            ),
            rng,
        )
        order = scenario.dataset.accounts
        truth_labels = scenario.user_partition.as_labels(order)
        crh_maes.append(
            mean_absolute_error(
                CRH().discover(scenario.dataset).truths, scenario.ground_truths
            )
        )
        for name, grouper in groupers.items():
            grouping = grouper.group(scenario.dataset, scenario.fingerprints)
            labels = grouping.restricted_to(order).as_labels(order)
            aris[name].append(adjusted_rand_index(truth_labels, labels))
            framework = SybilResistantTruthDiscovery()
            result = framework.discover(scenario.dataset, grouping=grouping)
            maes[name].append(
                mean_absolute_error(result.truths, scenario.ground_truths)
            )

    def stats(samples: Sequence[float]) -> Tuple[float, float]:
        arr = np.asarray(samples)
        return float(arr.mean()), float(arr.std())

    return CellResult(
        legit_activeness=legit_activeness,
        sybil_activeness=sybil_activeness,
        n_trials=n_trials,
        ari={name: stats(values) for name, values in aris.items()},
        mae={name: stats(values) for name, values in maes.items()},
        crh_mae=stats(crh_maes),
    )


def run_panel(
    legit_activeness: float,
    sybil_levels: Sequence[float] = SYBIL_ACTIVENESS_LEVELS,
    n_trials: int = 3,
    base_seed: int = 1000,
    groupers: Optional[Mapping[str, AccountGrouper]] = None,
) -> List[CellResult]:
    """One figure panel: sweep Sybil activeness at fixed legit activeness."""
    return [
        run_cell(
            legit_activeness,
            sybil_activeness,
            n_trials=n_trials,
            # Decorrelate trials across cells while keeping each cell
            # reproducible on its own.
            base_seed=base_seed + int(round(sybil_activeness * 1000)),
            groupers=groupers,
        )
        for sybil_activeness in sybil_levels
    ]


def run_panels(
    legit_levels: Sequence[float] = LEGIT_ACTIVENESS_PANELS,
    sybil_levels: Sequence[float] = SYBIL_ACTIVENESS_LEVELS,
    n_trials: int = 3,
    base_seed: int = 1000,
) -> Dict[float, List[CellResult]]:
    """The whole grid: ``{legit activeness: run_panel(...)}``.  Fig. 6 reads
    its ARIs and Fig. 7 its MAEs, so one sweep serves both figures."""
    return {
        legit: run_panel(
            legit, sybil_levels=sybil_levels, n_trials=n_trials, base_seed=base_seed
        )
        for legit in legit_levels
    }
