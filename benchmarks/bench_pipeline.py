"""Machine-readable perf snapshot of the full Sybil-resistant pipeline.

Runs one fixed-seed fig6-sized sweep cell (the paper population: 8
legitimate users, 2 Sybil attackers x 5 accounts; CRH baseline + the
three grouping methods + the framework per grouping) under a live
:mod:`repro.obs` tracer, then writes the per-stage wall-clock rollup,
iteration telemetry, and metric counters to ``BENCH_pipeline.json`` at
the repo root.

The ``counters`` and ``iterations`` depend only on the code and the
float results it computes, so CI regenerates the snapshot and gates it
against the committed one with ``tools/bench_check.py``; the cell's
trials and seed are therefore constants.  Timings of larger scenarios
(the ~80k-claim campaign, the ~600-account grouping population) belong
to the repository benchmark, ``perfbench/run.py``.  Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py -o /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
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
SCHEMA = "repro.bench/pipeline.v7"

#: The fig6 cell this snapshot traces (mid-grid: both populations active).
LEGIT_ACTIVENESS = 0.5
SYBIL_ACTIVENESS = 0.6
TRIALS = 3
BASE_SEED = 1000


def host_info() -> Dict[str, Any]:
    """The machine a snapshot was taken on; timings compare only within one.

    The numpy and scipy versions are also what CI pins before it checks
    the snapshot's counters with ``tools/bench_check.py``.
    """
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def build_snapshot() -> Dict[str, Any]:
    """Run the traced cell and assemble the snapshot document."""
    from repro.experiments.sweeps import run_cell
    from repro.obs import aggregate_spans, get_metrics, tracing_session

    start = time.perf_counter()
    with tracing_session() as tracer:
        run_cell(
            LEGIT_ACTIVENESS,
            SYBIL_ACTIVENESS,
            n_trials=TRIALS,
            base_seed=BASE_SEED,
        )
        wall_s = time.perf_counter() - start
        stages = aggregate_spans(tracer)
        snapshot = get_metrics().snapshot()

        iteration_counts: Dict[str, int] = {}
        for event in tracer.events:
            if event.name.endswith(".iteration"):
                iteration_counts[event.name] = iteration_counts.get(event.name, 0) + 1

    return {
        "schema": SCHEMA,
        "created_at": time.time(),
        "python": platform.python_version(),
        "host": host_info(),
        "config": {
            "legit_activeness": LEGIT_ACTIVENESS,
            "sybil_activeness": SYBIL_ACTIVENESS,
            "trials": TRIALS,
            "seed": BASE_SEED,
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
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default=str(DEFAULT_OUTPUT),
        help=f"output path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    target = pathlib.Path(args.output)
    document = build_snapshot()
    target.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {target} (wall {document['wall_s']:.2f}s, {len(document['stages'])} stages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
