"""The perf snapshot's gated counters equal the committed ``BENCH_pipeline.json``'s.

CI regenerates the snapshot and gates it with ``tools/bench_check.py``;
this runs the same check in-process, so counter drift shows in a local
test run first.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(relative):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fresh_snapshot_matches_the_committed_counters():
    bench_check = _load("tools/bench_check.py")
    bench_pipeline = _load("benchmarks/bench_pipeline.py")
    committed = json.loads((ROOT / "BENCH_pipeline.json").read_text())
    fresh = bench_pipeline.build_snapshot()
    reasons = bench_check.incomparable(committed, fresh)
    if reasons:
        pytest.skip("incomparable snapshots: " + "; ".join(reasons))
    assert bench_check.differences(committed, fresh) == []
