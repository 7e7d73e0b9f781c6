"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload claims-80k --seed 1 --seconds 30 --trace 1

The program runs from the checkout's ``src/`` on its default inline
runtime in this one process.  After set-up (imports plus input
generation, repeated and the median taken), whole passes run until the
next one would overrun ``--seconds``; each metric is the median over
passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
writing every span to ``perfbench/out/``.  The last line of standard
output is the result object; the lines before it describe the run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# One BLAS thread: the program's default runtime is a single inline
# process, and a thread pool sharing a small machine only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Input generations per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "crh_truths_s": "s",
    "grouped_truths_s": "s",
    "stream_claims_per_s": "claims/s",
    "categorical_truths_s": "s",
    "truth_mae": "dBm",
    "peak_rss_mib": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few-second version of the workload, for the benchmark's tests",
    )
    return parser.parse_args(argv)


def _host() -> dict:
    import platform

    import numpy
    import scipy

    from repro.runtime import get_runtime

    runtime = get_runtime()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "runtime_mode": "pool" if runtime.parallel else "inline",
        "runtime_workers": runtime.workers,
    }


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    """Run one workload; return the result object (last output line)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: no program sources at {SRC} (run from a checkout root)")
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from tracing import SpanRecorder, instrument

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    make = workloads.WORKLOADS[args.workload]
    recorder = SpanRecorder() if args.trace else None

    generation_s = []
    scenario_s = []
    for _ in range(SETUP_REPEATS):
        mark = recorder.mark() if recorder else 0
        t0 = time.perf_counter()
        campaigns = make(args.seed, args.size, recorder)
        generation_s.append(time.perf_counter() - t0)
        if recorder:
            scenario_s.append(layers.total(recorder.spans[mark:], "simulation.scenario"))
    setup_s = import_s + workloads.median(generation_s)
    for campaign in campaigns:
        campaign.prepare_checks()
    # Keep the collector from re-scanning the inputs during every pass.
    gc.collect()
    gc.freeze()

    passes = []
    traced_marks = []
    start = time.perf_counter()
    while True:
        if recorder is not None and len(passes) % 2 == 1:
            mark, before = recorder.mark(), layers.counters()
            with instrument(recorder):
                result = workloads.run_pass(campaigns, args.seed, recorder, single_calls=True)
            traced_marks.append((len(passes), mark, recorder.mark(), before, layers.counters()))
        else:
            result = workloads.run_pass(
                campaigns, args.seed, None, single_calls=recorder is not None
            )
        passes.append(result)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if recorder else 1)
        if enough and elapsed + workloads.median([p.wall_s for p in passes]) > args.seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    deterministic = len({p.digest for p in passes if p.failed == 0}) <= 1
    untraced = [p for i, p in enumerate(passes) if not (recorder and i % 2 == 1)]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(passes),
        "operations_per_pass": passes[0].attempted,
        "pass_campaign_s": [round(p.campaign_s, 6) for p in passes],
        "host": _host(),
        "paths_s": {
            key: workloads.robust_time(untraced, key) for key in sorted(passes[0].times)
        },
        "grouping_ari": workloads.median([_mean(p.aris) for p in untraced]),
        "deterministic": deterministic,
        "errors": [e for p in passes for e in p.errors][:5],
    }

    if recorder is None:
        paths = info["paths_s"]
        metrics = {
            "setup_s": setup_s,
            "campaign_s": sum(paths.values()),
            "crh_truths_s": paths["crh"],
            "grouped_truths_s": paths["grouped"],
            "stream_claims_per_s": passes[0].stream_claims / paths["stream"],
            "categorical_truths_s": paths["categorical"],
            "truth_mae": workloads.median([_mean(p.maes) for p in passes]),
            "peak_rss_mib": _peak_rss_mib(),
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [
            layers.per_layer(recorder.spans[lo:hi], passes[i], before, after)
            for i, lo, hi, before, after in traced_marks
        ]
        metrics = layers.summarize(per_pass, scenario_s, passes)
        units = layers.UNITS
        trace_path = layers.write_trace(
            HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
            recorder,
            per_pass,
            metrics,
            info,
        )
        info["trace_file"] = str(trace_path.relative_to(HERE.parent))

    print(json.dumps(info, sort_keys=True))
    return {
        "correct": bool(deterministic),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
