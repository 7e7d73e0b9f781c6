#!/usr/bin/env python3
"""Gate on the machine-independent part of two ``BENCH_pipeline.json`` snapshots.

A snapshot's ``counters`` (runs, iterations, DTW pair dispositions,
pairs scored, k-means fits) and ``iterations`` (per-iteration event
counts) depend only on the code and the float results it computes, not
on how fast the machine is.  This script fails when any of them differs
between an old and a new snapshot; ``stages`` and every other timing are
ignored.

Iteration counts follow float results, which may move between numpy
builds, so two snapshots are comparable only when they were taken with
the same numpy version (``host.numpy``) and the same Python minor
version (``python``; patch releases do not change float arithmetic).
Otherwise the script reports them incomparable and exits non-zero.

Usage::

    python tools/bench_check.py BENCH_pipeline.json fresh.json

Exit status: 0 same, 1 a counter or iteration count differs, 2
incomparable snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

#: Sections that must match exactly.
GATED = ("counters", "iterations")


def incomparable(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Why the two snapshots cannot be compared (empty if they can)."""
    reasons = []
    old_numpy = old.get("host", {}).get("numpy")
    new_numpy = new.get("host", {}).get("numpy")
    if old_numpy != new_numpy:
        reasons.append(f"numpy {old_numpy} vs {new_numpy}")
    old_python, new_python = old.get("python"), new.get("python")
    if _minor(old_python) != _minor(new_python):
        reasons.append(f"python {old_python} vs {new_python}")
    return reasons


def _minor(version: Any) -> Any:
    return ".".join(version.split(".")[:2]) if isinstance(version, str) else version


def differences(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """One line per gated entry that is missing, added or changed."""
    lines = []
    for section in GATED:
        before, after = old.get(section, {}), new.get(section, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                lines.append(f"{section}.{name}: {before.get(name)} -> {after.get(name)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the committed snapshot")
    parser.add_argument("new", help="a freshly generated snapshot")
    args = parser.parse_args(argv)
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)

    reasons = incomparable(old, new)
    if reasons:
        print("incomparable snapshots: " + "; ".join(reasons), file=sys.stderr)
        return 2
    changed = differences(old, new)
    for line in changed:
        print(line, file=sys.stderr)
    if changed:
        print(f"{len(changed)} machine-independent entries differ", file=sys.stderr)
        return 1
    total = sum(len(new.get(section, {})) for section in GATED)
    print(f"{total} counters and iteration counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
