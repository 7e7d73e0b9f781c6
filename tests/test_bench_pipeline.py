"""The perf snapshot's ``speedup_vs_previous`` compares timings only within one host."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_pipeline.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST = {"cpu_count": 2, "numpy": "2.4.6", "platform": "Linux-x86_64"}


def _snapshot(host, scale):
    return {
        "created_at": 1.0,
        "schema": "repro.bench/pipeline.v6",
        "host": host,
        "wall_s": 2.0 * scale,
        "stages": {"td.discover": {"total_s": 0.5 * scale}},
        "large_scenario": {"crh_s": 0.1 * scale, "categorical_s": 0.4 * scale},
    }


def test_same_host_reports_ratios(bench):
    speedup = bench.speedup_vs_previous(_snapshot(HOST, 2.0), _snapshot(dict(HOST), 1.0))
    assert "skipped" not in speedup
    assert speedup["wall"] == 2.0
    assert speedup["stages"] == {"td.discover": 2.0}
    assert speedup["large_scenario"] == {"crh_s": 2.0, "categorical_s": 2.0}


@pytest.mark.parametrize(
    "previous_host",
    [{**HOST, "cpu_count": 8}, {**HOST, "numpy": "1.26.4"}, None],
)
def test_other_host_is_skipped(bench, previous_host):
    previous = _snapshot(previous_host, 2.0)
    if previous_host is None:
        del previous["host"]  # snapshots before schema v4 record no host
    speedup = bench.speedup_vs_previous(previous, _snapshot(HOST, 1.0))
    assert speedup == {
        "baseline_created_at": 1.0,
        "baseline_schema": "repro.bench/pipeline.v6",
        "skipped": "host differs",
    }
