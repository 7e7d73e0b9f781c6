"""Command-line entry point: run any paper experiment.

Usage::

    python -m repro.cli table1
    python -m repro.cli fig6 --trials 5
    python -m repro.cli all
    python -m repro.cli report --output REPORT.md
    python -m repro.cli fig6 --trace --trace-out trace.jsonl
    python -m repro.cli fig7 --profile

Each experiment prints the same rows/series the corresponding paper table
or figure reports (see DESIGN.md §3 for the index).

Observability flags (any experiment, including ``all``):

* ``--trace`` enables span/event collection via :mod:`repro.obs`;
* ``--trace-out PATH`` writes the collected trace as JSONL (implies
  ``--trace``);
* ``--profile`` prints the stage-time summary table, per-run convergence
  chart, and metrics after the experiment output (implies ``--trace``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
)


def _run_table1(args: argparse.Namespace) -> str:
    return run_table1().render()


def _run_fig2(args: argparse.Namespace) -> str:
    return run_fig2(seed=args.seed).render()


def _run_fig3(args: argparse.Namespace) -> str:
    return run_fig3().render()


def _run_fig4(args: argparse.Namespace) -> str:
    return run_fig4().render()


def _run_fig5(args: argparse.Namespace) -> str:
    return run_fig5(seed=args.seed).render()


def _run_fig6(args: argparse.Namespace) -> str:
    return run_fig6(n_trials=args.trials, base_seed=args.seed).render()


def _run_fig7(args: argparse.Namespace) -> str:
    return run_fig7(n_trials=args.trials, base_seed=args.seed).render()


def _run_fig8(args: argparse.Namespace) -> str:
    return run_fig8(seed=args.seed).render()


def _run_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import generate_report, write_report

    if args.output:
        path = write_report(args.output, trials=args.trials, seed=args.seed)
        return f"report written to {path}"
    return generate_report(trials=args.trials, seed=args.seed)


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _run_table1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "report": _run_report,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'A Sybil-Resistant Truth "
            "Discovery Framework for Mobile Crowdsensing' (ICDCS 2019)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3,
        help="trials per sweep cell for fig6/fig7 (default 3)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1000,
        help="base random seed (default 1000)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="for 'report': write the markdown report to this path",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect spans and convergence records while running",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the collected trace as JSONL to PATH (implies --trace)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the stage-time/metrics summary after the experiment "
        "(implies --trace)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the selected experiment(s) and print their reports."""
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = sorted(name for name in EXPERIMENTS if name != "report")
    else:
        names = [args.experiment]

    tracing = args.trace or args.trace_out is not None or args.profile
    if not tracing:
        for name in names:
            print(EXPERIMENTS[name](args))
            print()
        return 0

    from repro.obs import get_metrics, render_summary, tracing_session

    with tracing_session(trace_out=args.trace_out) as tracer:
        for name in names:
            print(EXPERIMENTS[name](args))
            print()
    if args.profile:
        print(render_summary(tracer, get_metrics()))
        print()
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
