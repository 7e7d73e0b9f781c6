"""``tools/bench_check.py`` gates only the machine-independent snapshot parts."""

import copy
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_check.py"


@pytest.fixture(scope="module")
def bench_check():
    spec = importlib.util.spec_from_file_location("bench_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNAPSHOT = {
    "python": "3.11.7",
    "host": {"cpu_count": 2, "numpy": "2.4.6", "scipy": "1.17.1", "platform": "Linux"},
    "wall_s": 1.4,
    "stages": {"td.discover": {"count": 3, "total_s": 0.01}},
    "iterations": {"td.iteration": 80, "framework.iteration": 182},
    "counters": {"dtw.pairs_pruned": 393, "td.runs": 3},
    "large_scenario": {"crh_s": 0.05},
}


def _run(bench_check, tmp_path, capsys, new):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(SNAPSHOT))
    new_path.write_text(json.dumps(new))
    status = bench_check.main([str(old_path), str(new_path)])
    return status, capsys.readouterr()


def test_identical_snapshots_pass(bench_check, tmp_path, capsys):
    status, out = _run(bench_check, tmp_path, capsys, SNAPSHOT)
    assert status == 0
    assert "4 counters and iteration counts match" in out.out


@pytest.mark.parametrize(
    "section, name, value",
    [
        ("counters", "dtw.pairs_pruned", 392),
        ("counters", "dtw.pairs_computed", 60),
        ("iterations", "td.iteration", 81),
    ],
)
def test_changed_counter_fails(bench_check, tmp_path, capsys, section, name, value):
    new = copy.deepcopy(SNAPSHOT)
    new[section][name] = value
    status, out = _run(bench_check, tmp_path, capsys, new)
    assert status == 1
    assert f"{section}.{name}: {SNAPSHOT[section].get(name)} -> {value}" in out.err


def test_timing_only_change_passes(bench_check, tmp_path, capsys):
    new = copy.deepcopy(SNAPSHOT)
    new["wall_s"] = 9.9
    new["stages"] = {"td.discover": {"count": 3, "total_s": 0.5}, "ingest.dataset": {}}
    new["large_scenario"]["crh_s"] = 0.5
    new["host"]["cpu_count"] = 8
    new["python"] = "3.11.9"
    status, _ = _run(bench_check, tmp_path, capsys, new)
    assert status == 0


@pytest.mark.parametrize(
    "key, value, reason",
    [("numpy", "1.26.4", "numpy 2.4.6 vs 1.26.4"), ("python", "3.9.18", "python 3.11.7 vs 3.9.18")],
)
def test_version_mismatch_is_incomparable(bench_check, tmp_path, capsys, key, value, reason):
    new = copy.deepcopy(SNAPSHOT)
    if key == "numpy":
        new["host"]["numpy"] = value
    else:
        new["python"] = value
    new["counters"]["td.runs"] = 4  # not reported: the snapshots do not compare
    status, out = _run(bench_check, tmp_path, capsys, new)
    assert status == 2
    assert out.err.strip() == f"incomparable snapshots: {reason}"
