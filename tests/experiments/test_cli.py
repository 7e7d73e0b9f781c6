"""CLI tests: parser wiring and fast experiments end to end."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_experiment_choices_cover_registry(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_all_is_accepted(self):
        assert build_parser().parse_args(["all"]).experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_trials_and_seed_flags(self):
        args = build_parser().parse_args(["fig6", "--trials", "7", "--seed", "42"])
        assert args.trials == 7
        assert args.seed == 42

    def test_registry_names(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "report",
        }


class TestMain:
    @pytest.mark.parametrize("experiment", ["table1", "fig2", "fig3", "fig4", "fig5", "fig8"])
    def test_fast_experiments_run(self, experiment, capsys):
        assert main([experiment]) == 0
        out = capsys.readouterr().out
        assert len(out) > 100

    def test_table1_output_mentions_paper(self, capsys):
        main(["table1"])
        assert "paper" in capsys.readouterr().out


class TestReport:
    def test_report_without_sweeps(self, tmp_path):
        from repro.experiments.report import write_report

        path = write_report(tmp_path / "REPORT.md", include_sweeps=False)
        text = path.read_text()
        assert "# Reproduction report" in text
        assert "Table I" in text
        assert "Fig. 4" in text
        assert "Fig. 6" not in text

    def test_report_sections_fenced(self, tmp_path):
        from repro.experiments.report import generate_report

        text = generate_report(include_sweeps=False)
        assert text.count("```") % 2 == 0

    def test_report_runs_the_fig6_fig7_grid_once(self, monkeypatch):
        from repro.experiments import sweeps
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.fig7 import run_fig7
        from repro.experiments.report import generate_report

        calls = []

        def panel(legit, sybil_levels, n_trials, base_seed):
            calls.append(legit)
            return [
                sweeps.CellResult(
                    legit, s, n_trials, {"AG-TS": (legit * s, 0.0)},
                    {"AG-TS": (legit + s, 0.0)}, (2 * s, 0.0),
                )
                for s in sybil_levels
            ]

        monkeypatch.setattr(sweeps, "run_panel", panel)
        text = generate_report(trials=1)
        assert calls == list(sweeps.LEGIT_ACTIVENESS_PANELS)
        # The sections are the figures' own renders of that one grid.
        assert run_fig6(n_trials=1).render() in text
        assert run_fig7(n_trials=1).render() in text
