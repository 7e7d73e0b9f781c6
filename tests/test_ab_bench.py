"""``tools/ab_bench.py`` pairs benchmark runs of two checkouts."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_one_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, "tools/ab_bench.py", ".", ".", "--workload", "claims-80k",
         "--seed", "3", "--seconds", "1", "--size", "tiny", "--pairs", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = {line.split()[0]: line.split() for line in lines[2:-2]}
    assert set(rows) == {
        "setup_s", "campaign_s", "crh_truths_s", "grouped_truths_s",
        "stream_claims_per_s", "categorical_truths_s", "truth_mae", "peak_rss_mib",
    }
    # Both sides ran the same inputs through the same code.
    assert rows["truth_mae"][1] == rows["truth_mae"][2]
    assert rows["truth_mae"][5:] == ["0/1", "(1", "tied)"]
    assert [line.split(" 0 of ")[0] for line in lines[-2:]] == ["parent:", "change:"]


def test_wins_follow_the_declared_direction():
    import importlib.util

    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    ab_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_bench)

    def run(seconds, rate):
        return {
            "attempted": 4, "failed": 0,
            "metrics": {"campaign_s": {"value": seconds}, "stream_claims_per_s": {"value": rate}},
        }

    parent = [run(1.0, 100.0), run(1.0, 100.0), run(1.2, 100.0)]
    change = [run(0.5, 90.0), run(1.5, 90.0), run(0.6, 120.0)]
    lines = ab_bench.compare(
        parent, change, {"campaign_s": "lower", "stream_claims_per_s": "higher"}
    )
    rows = {line.split()[0]: line.split() for line in lines[1:3]}
    assert rows["campaign_s"][1:4] == ["1", "0.6", "-40.0%"]
    assert rows["campaign_s"][5] == "2/3"
    assert rows["stream_claims_per_s"][5] == "1/3"
    assert lines[-2:] == ["parent: 0 of 12 operations failed", "change: 0 of 12 operations failed"]
