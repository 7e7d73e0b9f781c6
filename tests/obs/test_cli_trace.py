"""CLI observability flags: --trace, --trace-out, --profile."""

import json

from repro.cli import build_parser, main
from repro.obs import NOOP_TRACER, get_tracer


class TestParser:
    def test_flags_default_off(self):
        args = build_parser().parse_args(["fig3"])
        assert not args.trace
        assert args.trace_out is None
        assert not args.profile

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["fig6", "--trace", "--trace-out", "t.jsonl", "--profile"]
        )
        assert args.trace and args.profile
        assert args.trace_out == "t.jsonl"


class TestTraceRun:
    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        # fig3 is the cheapest harness exercising a grouper end to end.
        assert main(["fig3", "--trace", "--trace-out", str(out)]) == 0
        assert f"trace written to {out}" in capsys.readouterr().out
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "metrics"
        assert any(
            r["type"] == "span" and r["name"] == "grouping.ag_ts" for r in records
        )
        # The global tracer is restored after the run.
        assert get_tracer() is NOOP_TRACER

    def test_profile_prints_stage_table(self, capsys):
        assert main(["fig3", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "Stage times" in output
        assert "grouping.ag_ts" in output
        assert "Counters" in output

    def test_plain_run_stays_untraced(self, capsys):
        assert main(["fig3"]) == 0
        assert "Stage times" not in capsys.readouterr().out
        assert get_tracer() is NOOP_TRACER
