"""Machine-readable perf snapshot of the full Sybil-resistant pipeline.

Runs one fixed-seed fig6-sized sweep cell (the paper population: 8
legitimate users, 2 Sybil attackers x 5 accounts; CRH baseline + the
three grouping methods + the framework per grouping) under a live
:mod:`repro.obs` tracer, then writes the per-stage wall-clock rollup,
iteration telemetry, and metric counters to ``BENCH_pipeline.json`` at
the repo root.

Since schema v2 the snapshot also times:

* a **large synthetic scenario** (2000 accounts x 500 tasks, ~80k
  claims) through CRH, the framework, and the streaming engine — the
  scale where the claim-matrix engine's vectorized kernels matter; each
  timing is the median of three calls;
* the **engine kernels** in isolation (matrix compile, spread
  normalizer, distance / truth-update segment-sums) so a kernel-level
  regression is attributable without re-profiling;
* ``speedup_vs_previous`` — stage-by-stage ratios against the
  ``BENCH_pipeline.json`` being overwritten, so every PR's perf delta
  is recorded in the artifact itself.  Since schema v5 the ratios are
  computed only when the previous snapshot's ``host`` equals this
  run's; otherwise the section records ``"skipped": "host differs"``.

Schema v4 records the ``host`` (CPU count, numpy version, platform)
and times the grouping stages on a ~600-account population scenario in
two sections that keep the two causes of a speedup apart:

* ``pruning`` — algorithmic gains, both sides at ``workers=1``: AG-TR
  with LB_Kim/LB_Keogh pruning and early abandoning vs the same code
  unpruned, and AG-TS's Gram-matrix Eq. 6 vs per-pair set arithmetic;
* ``workers`` — parallelism alone: pruned AG-TR at ``workers=1`` vs
  ``workers=2``, the same code on the :mod:`repro.runtime` pool.

Every run asserts that each pair of outputs is identical.

This seeds the bench trajectory: successive PRs re-run the script and
diff the stage timings, so a perf regression (or win) in grouping,
data grouping, or the CRH loop is visible as a number instead of a
feeling.  Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --trials 5 -o /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time
from typing import Any, Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

# Allow running the script directly, without PYTHONPATH=src.
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Snapshot schema tag; bump when the JSON layout changes.
SCHEMA = "repro.bench/pipeline.v5"

#: Calls per ``large_scenario`` timing; the snapshot records their median,
#: so one slow spell of a shared machine does not set the ratio.
LARGE_REPEATS = 3

#: The fig6 cell this snapshot times (mid-grid: both populations active).
LEGIT_ACTIVENESS = 0.5
SYBIL_ACTIVENESS = 0.6

#: The large synthetic scenario (fixed seeds so runs are comparable).
#: Its categorical labels are the claims binned to ``LABEL_BIN_DBM``.
LARGE_SEED = 77
LARGE_ACCOUNTS = 2000
LARGE_TASKS = 500
LARGE_DENSITY = 0.08
LARGE_GROUPS = 400
LABEL_BIN_DBM = 5.0


def _make_large_scenario():
    """~80k-claim campaign plus a random 400-group partition."""
    import numpy as np

    from repro.core.dataset import SensingDataset
    from repro.core.types import Grouping, Observation, Task

    rng = np.random.default_rng(LARGE_SEED)
    truths = rng.uniform(-90, -60, LARGE_TASKS)
    observations = []
    for i in range(LARGE_ACCOUNTS):
        mask = rng.random(LARGE_TASKS) < LARGE_DENSITY
        noise = rng.normal(0, 2.0, LARGE_TASKS)
        for j in np.nonzero(mask)[0]:
            observations.append(
                Observation(
                    f"a{i:04d}", f"T{j:04d}", float(truths[j] + noise[j]), float(j)
                )
            )
    tasks = [Task(task_id=f"T{j:04d}") for j in range(LARGE_TASKS)]
    dataset = SensingDataset(tasks, observations)

    group_rng = np.random.default_rng(5)
    labels = group_rng.integers(0, LARGE_GROUPS, len(dataset.accounts))
    groups: Dict[int, list] = {}
    for account, g in zip(dataset.accounts, labels):
        groups.setdefault(int(g), []).append(account)
    grouping = Grouping.from_groups(list(groups.values()))
    return dataset, grouping


def time_large_scenario() -> Dict[str, Any]:
    """End-to-end timings of CRH, the framework, streaming and grouped
    categorical truth discovery at ~80k claims, each the median of
    :data:`LARGE_REPEATS` calls."""
    import math

    from repro.core.categorical import CategoricalClaims, CategoricalTruthDiscovery
    from repro.core.crh import CRH
    from repro.core.framework import SybilResistantTruthDiscovery
    from repro.core.streaming import StreamingTruthDiscovery, replay_dataset

    dataset, grouping = _make_large_scenario()

    crh_result, crh_s = _median_timed(lambda: CRH().discover(dataset))
    framework_result, framework_s = _median_timed(
        lambda: SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)
    )

    observations = [
        obs
        for account in dataset.accounts
        for obs in dataset.observations_for_account(account)
    ]

    def replay():
        engine = StreamingTruthDiscovery(decay=0.9, grouping=grouping)
        replay_dataset(engine, observations, batch_seconds=25.0)
        return engine

    engine, streaming_s = _median_timed(replay)

    labels = [
        (obs.account_id, obs.task_id, math.floor(obs.value / LABEL_BIN_DBM))
        for obs in observations
    ]
    categorical_result, categorical_s = _median_timed(
        lambda: CategoricalTruthDiscovery(grouping=grouping).discover(
            CategoricalClaims(labels)
        )
    )

    return {
        "claims": len(dataset),
        "accounts": LARGE_ACCOUNTS,
        "tasks": LARGE_TASKS,
        "groups": len(grouping),
        "crh_s": round(crh_s, 4),
        "crh_iterations": crh_result.iterations,
        "framework_s": round(framework_s, 4),
        "framework_iterations": framework_result.iterations,
        "streaming_s": round(streaming_s, 4),
        "streaming_batches": engine.batches_seen,
        "categorical_s": round(categorical_s, 4),
        "categorical_iterations": categorical_result.iterations,
    }


def time_engine_kernels(iterations: int = 25) -> Dict[str, Any]:
    """Isolated per-kernel timings over the large scenario's claim matrix."""
    import numpy as np

    from repro.core.engine import (
        ClaimMatrix,
        column_spreads,
        segment_row_distances,
        segment_weighted_truths,
    )
    from repro.core.truth_discovery import crh_log_weights

    dataset, _ = _make_large_scenario()
    t0 = time.perf_counter()
    matrix = ClaimMatrix.from_dataset(dataset)
    compile_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    spreads = column_spreads(matrix.values, matrix.col_idx, matrix.n_cols)
    spreads_s = time.perf_counter() - t0

    truths = np.nan_to_num(matrix.column_means())
    distance_s = truth_s = 0.0
    for _ in range(iterations):
        t0 = time.perf_counter()
        distances = segment_row_distances(
            matrix.values, matrix.row_idx, matrix.col_idx,
            truths, matrix.n_rows, spreads,
        )
        distance_s += time.perf_counter() - t0
        weights = crh_log_weights(distances)
        t0 = time.perf_counter()
        truths = segment_weighted_truths(
            matrix.values, matrix.col_idx,
            weights[matrix.row_idx], matrix.n_cols, truths,
        )
        truth_s += time.perf_counter() - t0

    return {
        "claims": matrix.nnz,
        "iterations": iterations,
        "compile_s": round(compile_s, 6),
        "spreads_s": round(spreads_s, 6),
        "distance_kernel_mean_s": round(distance_s / iterations, 6),
        "truth_kernel_mean_s": round(truth_s / iterations, 6),
    }


#: Population-scale scenario for the grouping sections: ~400 legitimate
#: users and 40 attackers x 5 accounts (alternating Attack-I/II) over 100
#: tasks — ~600 accounts and ~28k claims.
POPULATION_SEED = 1
POPULATION_LEGIT = 400
POPULATION_ATTACKERS = 40
POPULATION_TASKS = 100

#: Accounts in the pruned-vs-unpruned AG-TR comparison: small enough that
#: the unpruned matrix stays benchable.
PRUNING_AGTR_ACCOUNTS = 40

#: Worker count compared against ``workers=1`` in the ``workers`` section.
WORKERS = 2

#: AG-TR's edge threshold phi: edges are scores strictly below it.
AGTR_THRESHOLD = 1.0


def _make_population_scenario():
    """The ~600-account campaign the grouping sections time."""
    import numpy as np

    from repro.simulation.attackers import AttackerConfig, ConstantFabrication
    from repro.simulation.scenario import ScenarioConfig, build_scenario
    from repro.simulation.users import UserConfig

    rng = np.random.default_rng([POPULATION_SEED, 7])
    legit = tuple(
        UserConfig(
            activeness=float(rng.uniform(0.3, 0.6)),
            noise_std=float(rng.uniform(1.0, 3.0)),
            bias=float(rng.normal(0.0, 0.5)),
        )
        for _ in range(POPULATION_LEGIT)
    )
    attackers = tuple(
        (
            AttackerConfig(
                n_accounts=5,
                activeness=0.5,
                fabrication=ConstantFabrication(
                    target=float(rng.uniform(-55.0, -45.0))
                ),
            ),
            1 if index % 2 == 0 else 2,
        )
        for index in range(POPULATION_ATTACKERS)
    )
    config = ScenarioConfig(
        n_tasks=POPULATION_TASKS,
        legit_users=legit,
        attackers=attackers,
        start_window=8 * 3600.0,
    )
    return build_scenario(config, rng).dataset


def _serial_agts_reference(dataset, accounts):
    """Eq. 6 with per-pair Python set arithmetic."""
    import numpy as np

    m = len(dataset.tasks)
    task_sets = [dataset.task_set(a) for a in accounts]
    n = len(accounts)
    affinity = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            together = len(task_sets[i] & task_sets[j])
            alone = len(task_sets[i] ^ task_sets[j])
            affinity[i, j] = affinity[j, i] = (
                (together - 2 * alone) * (together + alone) / m
            )
    return affinity


def _components(accounts, matrix):
    from repro.graph.threshold import graph_from_dissimilarity

    graph = graph_from_dissimilarity(list(accounts), matrix, AGTR_THRESHOLD)
    return set(graph.connected_components())


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _median_timed(fn, calls: int = LARGE_REPEATS):
    """The last call's result and the median seconds of ``calls`` calls."""
    seconds = []
    for _ in range(calls):
        result, elapsed = _timed(fn)
        seconds.append(elapsed)
    return result, statistics.median(seconds)


def time_pruning(dataset) -> Dict[str, Any]:
    """Algorithmic gains at ``workers=1``: AG-TR bounds pruning, AG-TS Gram.

    AG-TR runs the same code with pruning off and on; the entries below
    phi must be equal and the threshold-graph components identical.
    AG-TS's Gram-matrix Eq. 6 must equal the per-pair set arithmetic
    exactly.
    """
    import numpy as np

    from repro.core.grouping.taskset import taskset_affinity_matrix
    from repro.core.grouping.trajectory import trajectory_dissimilarity_matrix
    from repro.runtime import runtime_session

    agtr_accounts = dataset.accounts[:PRUNING_AGTR_ACCOUNTS]
    with runtime_session(workers=1):
        (_, unpruned), unpruned_s = _timed(
            lambda: trajectory_dissimilarity_matrix(dataset, accounts=agtr_accounts)
        )
        (_, pruned), pruned_s = _timed(
            lambda: trajectory_dissimilarity_matrix(
                dataset, accounts=agtr_accounts, prune_threshold=AGTR_THRESHOLD
            )
        )
    below = unpruned < AGTR_THRESHOLD
    agtr_identical = bool(
        np.array_equal(unpruned[below], pruned[below])
        and _components(agtr_accounts, unpruned)
        == _components(agtr_accounts, pruned)
    )

    reference, reference_s = _timed(
        lambda: _serial_agts_reference(dataset, dataset.accounts)
    )
    (_, gram), gram_s = _timed(lambda: taskset_affinity_matrix(dataset))

    def ratio(old, new):
        return round(old / new, 2) if new > 0 else None

    return {
        "workers": 1,
        "agtr_accounts": len(agtr_accounts),
        "agtr_unpruned_s": round(unpruned_s, 4),
        "agtr_pruned_s": round(pruned_s, 4),
        "agtr_speedup": ratio(unpruned_s, pruned_s),
        "agtr_identical": agtr_identical,
        "agts_accounts": len(dataset.accounts),
        "agts_per_pair_s": round(reference_s, 4),
        "agts_gram_s": round(gram_s, 4),
        "agts_speedup": ratio(reference_s, gram_s),
        "agts_identical": bool(np.array_equal(reference, gram)),
    }


def time_workers(dataset) -> Dict[str, Any]:
    """Pruned AG-TR at ``workers=1`` vs ``workers=WORKERS``, same code.

    The parallel timing includes starting the process pool; the two
    matrices must be byte-identical.
    """
    import numpy as np

    from repro.core.grouping.trajectory import trajectory_dissimilarity_matrix
    from repro.runtime import runtime_session

    matrices, seconds = {}, {}
    for workers in (1, WORKERS):
        with runtime_session(workers=workers):
            (_, matrices[workers]), seconds[workers] = _timed(
                lambda: trajectory_dissimilarity_matrix(
                    dataset, prune_threshold=AGTR_THRESHOLD
                )
            )
    return {
        "workers": WORKERS,
        "agtr_accounts": len(dataset.accounts),
        "agtr_w1_s": round(seconds[1], 4),
        f"agtr_w{WORKERS}_s": round(seconds[WORKERS], 4),
        "agtr_speedup": round(seconds[1] / seconds[WORKERS], 2),
        "identical": bool(
            np.array_equal(matrices[1], matrices[WORKERS], equal_nan=True)
        ),
    }


def host_info() -> Dict[str, Any]:
    """The machine a snapshot was taken on; timings compare only within one."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def speedup_vs_previous(
    previous: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """Stage-by-stage old/new timing ratios (>1 means this run is faster).

    Timings compare only within one machine: if the two snapshots' hosts
    differ, no ratio is computed.
    """
    out: Dict[str, Any] = {
        "baseline_created_at": previous.get("created_at"),
        "baseline_schema": previous.get("schema"),
    }
    if previous.get("host") != current.get("host"):
        out["skipped"] = "host differs"
        return out

    def ratio(old, new):
        if not old or not new or new <= 0:
            return None
        return round(old / new, 3)

    stages = {}
    for name, stage in current.get("stages", {}).items():
        old = previous.get("stages", {}).get(name, {}).get("total_s")
        r = ratio(old, stage.get("total_s"))
        if r is not None:
            stages[name] = r
    out["wall"] = ratio(previous.get("wall_s"), current.get("wall_s"))
    out["stages"] = stages
    old_large = previous.get("large_scenario", {})
    new_large = current.get("large_scenario", {})
    large = {
        key: ratio(old_large.get(key), new_large.get(key))
        for key in ("crh_s", "framework_s", "streaming_s", "categorical_s")
        if ratio(old_large.get(key), new_large.get(key)) is not None
    }
    if large:
        out["large_scenario"] = large
    return out


def build_snapshot(trials: int, seed: int) -> Dict[str, Any]:
    """Run the instrumented cell and assemble the snapshot document."""
    from repro.experiments.sweeps import run_cell
    from repro.obs import aggregate_spans, get_metrics, tracing_session

    start = time.perf_counter()
    with tracing_session() as tracer:
        run_cell(
            LEGIT_ACTIVENESS,
            SYBIL_ACTIVENESS,
            n_trials=trials,
            base_seed=seed,
        )
        wall_s = time.perf_counter() - start
        stages = aggregate_spans(tracer)
        snapshot = get_metrics().snapshot()

        iteration_counts: Dict[str, int] = {}
        for event in tracer.events:
            if event.name.endswith(".iteration"):
                iteration_counts[event.name] = iteration_counts.get(event.name, 0) + 1

    population = _make_population_scenario()
    return {
        "schema": SCHEMA,
        "created_at": time.time(),
        "python": platform.python_version(),
        "host": host_info(),
        "config": {
            "legit_activeness": LEGIT_ACTIVENESS,
            "sybil_activeness": SYBIL_ACTIVENESS,
            "trials": trials,
            "seed": seed,
        },
        "wall_s": round(wall_s, 4),
        "stages": {
            name: {
                "count": stage["count"],
                "total_s": round(stage["total_s"], 6),
                "mean_s": round(stage["mean_s"], 6),
                "max_s": round(stage["max_s"], 6),
            }
            for name, stage in stages.items()
        },
        "iterations": iteration_counts,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "large_scenario": time_large_scenario(),
        "engine_kernels": time_engine_kernels(),
        "pruning": time_pruning(population),
        "workers": time_workers(population),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=3, help="trials (default 3)")
    parser.add_argument("--seed", type=int, default=1000, help="base seed (default 1000)")
    parser.add_argument(
        "-o",
        "--output",
        default=str(DEFAULT_OUTPUT),
        help=f"output path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    target = pathlib.Path(args.output)
    previous: Dict[str, Any] = {}
    if target.exists():
        try:
            previous = json.loads(target.read_text())
        except (OSError, ValueError):
            previous = {}

    document = build_snapshot(trials=args.trials, seed=args.seed)
    if previous:
        document["speedup_vs_previous"] = speedup_vs_previous(previous, document)
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    total_ms = sum(stage["total_s"] for stage in document["stages"].values()) * 1e3
    print(f"wrote {target} (wall {document['wall_s']:.2f}s, "
          f"{len(document['stages'])} stages, {total_ms:.0f}ms traced)")
    large = document["large_scenario"]
    print(f"large scenario ({large['claims']} claims): "
          f"crh {large['crh_s']:.3f}s, framework {large['framework_s']:.3f}s, "
          f"streaming {large['streaming_s']:.3f}s, "
          f"categorical {large['categorical_s']:.3f}s")
    speedup = document.get("speedup_vs_previous", {})
    if "skipped" in speedup:
        print(f"speedup vs previous snapshot: skipped ({speedup['skipped']})")
    speedup = speedup.get("large_scenario")
    if speedup:
        print("speedup vs previous snapshot: "
              + ", ".join(f"{k} {v:.2f}x" for k, v in speedup.items()))
    pruning = document["pruning"]
    print(f"pruning (workers=1): "
          f"AG-TR unpruned {pruning['agtr_unpruned_s']:.2f}s -> pruned "
          f"{pruning['agtr_pruned_s']:.2f}s ({pruning['agtr_speedup']}x, "
          f"identical={pruning['agtr_identical']}), "
          f"AG-TS per-pair {pruning['agts_per_pair_s']:.2f}s -> Gram "
          f"{pruning['agts_gram_s']:.3f}s ({pruning['agts_speedup']}x, "
          f"identical={pruning['agts_identical']})")
    workers = document["workers"]
    print(f"workers (pruned AG-TR, {workers['agtr_accounts']} accounts): "
          f"w=1 {workers['agtr_w1_s']:.2f}s -> "
          f"w={WORKERS} {workers[f'agtr_w{WORKERS}_s']:.2f}s "
          f"({workers['agtr_speedup']}x, identical={workers['identical']})")
    identical = (
        pruning["agtr_identical"], pruning["agts_identical"], workers["identical"]
    )
    if not all(identical):
        print("error: a grouping comparison produced different outputs",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
