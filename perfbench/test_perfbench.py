"""Tests of the benchmark itself.

Run from the repository root with::

    python3 -m pytest perfbench -q

The tiny-size mode of every workload must pass all checks, and every
check must fail when handed a corrupted output.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

from repro.core.crh import CRH  # noqa: E402
from repro.core.dataset import SensingDataset  # noqa: E402
from repro.core.framework import SybilResistantTruthDiscovery  # noqa: E402
from repro.core.categorical import CategoricalClaims, CategoricalTruthDiscovery  # noqa: E402
from repro.core.grouping import TaskSetGrouper, TrajectoryGrouper  # noqa: E402
from repro.core.streaming import StreamingTruthDiscovery, replay_dataset  # noqa: E402
from repro.core.types import Grouping, Observation, Task  # noqa: E402
from repro.ml.metrics import adjusted_rand_index  # noqa: E402
from repro.timeseries.dtw import dtw_cost  # noqa: E402


def _bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(workload):
    result = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny", "--trace", "0"
    )
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name


def test_tiny_traced_run_reports_every_layer_and_writes_spans():
    result = _bench(
        "--workload", "paper-grid", "--seed", "3", "--seconds", "1", "--size", "tiny", "--trace", "1"
    )
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(layers.UNITS)
    trace = json.loads((HERE / "out" / "trace-paper-grid-seed3.json").read_text())
    assert trace["missing_targets"] == []
    names = {span["name"] for span in trace["spans"]}
    for layer in ("engine.loop", "features.extract", "ml.kmeans", "agtr.dissimilarity"):
        assert layer in names
    assert all(span["end"] >= span["start"] for span in trace["spans"])
    assert "self_s" in trace["metrics"]["ml.elbow_s"]


def test_failed_exit_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Each check fails on a corrupted output
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign():
    c = workloads.paper_grid(seed=5, size="tiny", recorder=None)[1]
    c.prepare_checks()
    return c


@pytest.fixture(scope="module")
def dataset(campaign):
    return SensingDataset(campaign.tasks, campaign.observations)


def _moved(truths, delta=1.0):
    task = sorted(truths)[0]
    return {**truths, task: truths[task] + delta}


def test_crh_check_catches_a_moved_truth(campaign, dataset):
    result = CRH().discover(dataset)
    checks.check_crh(campaign.claims, result)
    with pytest.raises(checks.CheckFailed):
        checks.check_crh(campaign.claims, dataclasses.replace(result, truths=_moved(result.truths)))


def test_framework_check_catches_a_moved_truth(campaign, dataset):
    result = SybilResistantTruthDiscovery().discover(dataset, grouping=campaign.supplied)
    checks.check_framework(campaign.claims, result)
    with pytest.raises(checks.CheckFailed):
        checks.check_framework(
            campaign.claims, dataclasses.replace(result, truths=_moved(result.truths))
        )


def test_framework_check_catches_a_moved_weight(campaign, dataset):
    result = SybilResistantTruthDiscovery().discover(dataset, grouping=campaign.supplied)
    weights = dict(result.group_weights)
    weights[0] *= 1.5
    with pytest.raises(checks.CheckFailed):
        checks.check_framework(campaign.claims, dataclasses.replace(result, group_weights=weights))


def test_streaming_check_catches_a_truth_outside_the_claims(campaign):
    engine = StreamingTruthDiscovery(decay=workloads.STREAM_DECAY, grouping=campaign.supplied)
    truths = replay_dataset(engine, campaign.observations, batch_seconds=600.0)
    checks.check_streaming(campaign.claims, truths)
    lo, hi = campaign.claims.task_ranges()
    task = campaign.claims.tasks[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_streaming(campaign.claims, {**truths, task: hi[0] + 1.0})


def test_categorical_check_catches_a_minority_label(campaign):
    claims = CategoricalClaims(campaign.labels)
    result = CategoricalTruthDiscovery(grouping=campaign.supplied).discover(claims)
    checks.check_categorical(campaign.labels, campaign.supplied, result)
    for task, truth in result.truths.items():
        others = {label for _, t, label in campaign.labels if t == task} - {truth}
        if others:
            wrong = {**result.truths, task: sorted(others)[0]}
            break
    with pytest.raises(checks.CheckFailed):
        checks.check_categorical(
            campaign.labels, campaign.supplied, dataclasses.replace(result, truths=wrong)
        )


def _move_one_account(grouping: Grouping) -> Grouping:
    groups = [set(g) for g in grouping.groups]
    source = next(i for i, g in enumerate(groups) if len(g) > 1)
    account = min(groups[source])
    groups[source].remove(account)
    if len(groups) > 1:
        groups[(source + 1) % len(groups)].add(account)
    else:
        groups.append({account})
    return Grouping.from_groups(groups)


def test_agts_check_catches_a_moved_account(campaign, dataset):
    grouping = TaskSetGrouper(threshold=workloads.RHO).group(dataset)
    checks.check_agts(campaign.claims, grouping, workloads.RHO, len(campaign.tasks))
    with pytest.raises(checks.CheckFailed):
        checks.check_agts(
            campaign.claims, _move_one_account(grouping), workloads.RHO, len(campaign.tasks)
        )


def test_partition_check_catches_an_account_in_two_groups(campaign):
    groups = [set(g) for g in campaign.supplied.groups]
    groups[1].add(min(groups[0]))
    with pytest.raises(checks.CheckFailed):
        checks.check_partition(Grouping(groups=tuple(frozenset(g) for g in groups)), campaign.claims.accounts)
    with pytest.raises(checks.CheckFailed):
        checks.check_partition(Grouping.from_groups(groups[1:]), campaign.claims.accounts)


def _trajectory_campaign():
    """a and b walk the same route minutes apart (one AG-TR edge); c and d
    do not."""
    tasks = [Task(f"T{j}") for j in range(4)]
    routes = {
        "a": [(0, 100.0), (1, 700.0), (2, 1300.0)],
        "b": [(0, 160.0), (1, 760.0), (2, 1360.0)],
        "c": [(2, 100.0), (1, 700.0), (0, 1300.0)],
        "d": [(0, 30000.0), (1, 30600.0), (3, 31200.0)],
    }
    observations = [
        Observation(account, f"T{task}", -70.0 + k, stamp)
        for account, route in routes.items()
        for k, (task, stamp) in enumerate(route)
    ]
    return tasks, observations


def test_agtr_check_catches_a_dropped_edge_and_a_moved_account():
    tasks, observations = _trajectory_campaign()
    claims = checks.Claims(observations)
    grouping = TrajectoryGrouper(threshold=workloads.PHI).group(SensingDataset(tasks, observations))
    assert set(grouping.groups) == {frozenset("ab"), frozenset("c"), frozenset("d")}
    rng = np.random.default_rng(0)
    args = (workloads.PHI, workloads.TIMESTAMP_SCALE, rng, 10)
    assert checks.check_agtr(claims, grouping, *args) == 1
    dropped = Grouping.from_groups([["a"], ["b"], ["c"], ["d"]])
    with pytest.raises(checks.CheckFailed):
        checks.check_agtr(claims, dropped, *args)
    moved = Grouping.from_groups([["a", "c"], ["b"], ["d"]])
    with pytest.raises(checks.CheckFailed):
        checks.check_agtr(claims, moved, *args)


# ----------------------------------------------------------------------
# The benchmark's own metric code
# ----------------------------------------------------------------------


def test_plain_dtw_matches_the_dynamic_program_definition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=rng.integers(1, 8))
        b = rng.normal(size=rng.integers(1, 8))
        assert checks.plain_dtw(a.tolist(), b.tolist()) == pytest.approx(dtw_cost(a, b), rel=1e-12)


def test_ari_agrees_with_the_textbook_values():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 4, 30)
        b = rng.integers(0, 5, 30)
        assert checks.adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(a, b))
    assert checks.adjusted_rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0


def test_mae_is_the_mean_absolute_error():
    assert checks.mean_absolute_error({"x": 1.0, "y": -2.0}, {"x": 0.0, "y": 0.0, "z": 9.0}) == 1.5


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
