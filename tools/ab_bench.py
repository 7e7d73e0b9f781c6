#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark between two checkouts.

Runs ``perfbench/run.py`` in a parent checkout and in a changed checkout,
one after the other, ``--pairs`` times (the parent first in even pairs, the
change first in odd ones, so drift of a shared machine hits both sides).
For every end-to-end metric it prints both medians, the relative change,
the parent's interquartile distance and how many pairs the change won
(better in that pair, in the direction ``BENCHMARK.json`` declares).

Usage::

    python tools/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload paper-grid \\
        --seed 31 --seconds 20 --pairs 5

A claimed gain should win nearly every pair and move the median by more
than the parent's interquartile distance.  Exit status 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence


def _run(root: pathlib.Path, args: argparse.Namespace) -> dict:
    """One benchmark run in ``root``; its last output line (the result)."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", args.size,
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"run failed in {root}:\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _directions(root: pathlib.Path) -> Dict[str, str]:
    """``better`` ("lower" or "higher") per end-to-end metric."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def _quartile_gap(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def compare(parent: List[dict], change: List[dict], directions: Dict[str, str]) -> List[str]:
    """The report lines for paired results (``parent[i]`` with ``change[i]``)."""
    lines = [
        f"{'metric':<22} {'parent':>12} {'change':>12} {'delta':>8} {'parent IQR':>11}  wins"
    ]
    for name in parent[0]["metrics"]:
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        sign = -1.0 if directions.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        before, after = statistics.median(a), statistics.median(b)
        delta = f"{(after - before) / before:+.1%}" if before else "n/a"
        lines.append(
            f"{name:<22} {before:>12.5g} {after:>12.5g} {delta:>8} "
            f"{_quartile_gap(a):>11.3g}  {wins}/{len(a)}" + (f" ({ties} tied)" if ties else "")
        )
    for label, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        lines.append(f"{label}: {failed} of {attempted} operations failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="root of the parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    parent: List[dict] = []
    change: List[dict] = []
    for pair in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        for root, results in order if pair % 2 == 0 else order[::-1]:
            results.append(_run(root.resolve(), args))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(compare(parent, change, _directions(args.change.resolve()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
