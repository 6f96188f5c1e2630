"""Tests for the command-line interface and the shared figure builders."""

import pytest

from repro.analysis.figures import fig1_report, fig3_table, fig4_table, fig5_report
from repro.cli import build_parser, main


class TestFigureBuilders:
    def test_fig1_report_contents(self):
        report = fig1_report()
        assert "8/11" in report
        assert "T5 released one slot late" in report
        # Group deadlines from the paper.
        assert "  T3" in report and "  T7" in report

    def test_fig5_report_phenomenon(self):
        report, results = fig5_report(horizon=450)
        assert "component misses = 0" in report     # reweighted run
        _, d_plain = results[False]
        _, d_rw = results[True]
        assert d_plain.miss_count > 0
        assert d_rw.miss_count == 0

    def test_fig3_fig4_tables(self):
        from repro.campaign import run_schedulability_campaign

        rows = run_schedulability_campaign(10, [2.0], sets_per_point=3, seed=0)
        t3 = fig3_table(rows, 10, 3)
        t4 = fig4_table(rows, 10, 3)
        assert "M Pfair" in t3 and "M EDF-FF" in t3
        assert "Pfair loss" in t4 and "FF loss" in t4


class TestCLI:
    def test_windows(self, capsys):
        assert main(["windows", "8/11", "--subtasks", "8"]) == 0
        out = capsys.readouterr().out
        assert "group-deadline" in out
        assert "T3" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "2/3", "2/3", "2/3", "--horizon", "12"]) == 0
        out = capsys.readouterr().out
        assert "misses: 0" in out
        assert "2 processors" in out

    def test_schedule_no_fastpath_prints_the_same_schedule(self, capsys):
        argv = ["schedule", "1/3", "2/5", "1/4", "--horizon", "30"]
        assert main(argv) == 0
        auto = capsys.readouterr().out
        assert main(argv + ["--no-fastpath"]) == 0
        assert capsys.readouterr().out == auto

    @pytest.mark.parametrize("argv", [
        ["fig3"], ["fig4"], ["campaign", "run", "RUN"],
        ["campaign", "resume", "RUN"], ["worker", "--serve"],
    ], ids=["fig3", "fig4", "campaign-run", "campaign-resume", "worker"])
    def test_no_fastpath_is_gone_from_the_campaign_commands(
            self, argv, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = [str(run_dir) if arg == "RUN" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-fastpath"])
        assert exc.value.code == 2
        assert "--no-fastpath" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_schedule_infeasible_m(self, capsys):
        rc = main(["schedule", "1/1", "1/1", "--processors", "1"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "10/50", "20/100"]) == 0
        out = capsys.readouterr().out
        assert "PD²" in out and "EDF-FF" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "8/11" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5", "--horizon", "450"]) == 0
        out = capsys.readouterr().out
        assert "component misses" in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--tasks", "10", "--points", "2",
                     "--sets", "2"]) == 0
        assert "M Pfair" in capsys.readouterr().out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--tasks", "10", "--points", "2",
                     "--sets", "2"]) == 0
        assert "Pfair loss" in capsys.readouterr().out

    def test_bad_weight_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["windows", "eight-elevenths"])
        with pytest.raises(SystemExit):
            main(["windows", "3/2"])  # weight > 1

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["fig3", "-j", "0"],
        ["fig4", "--jobs", "-1"],
        ["campaign", "run", "RUN", "-j", "0"],
        ["campaign", "run", "RUN", "--workers", "0"],
        ["campaign", "resume", "RUN", "--jobs", "-2"],
        ["worker", "--serve", "-j", "0"],
    ], ids=["fig3", "fig4", "campaign-run", "campaign-run-workers",
            "campaign-resume", "worker"])
    def test_nonpositive_job_count_is_a_usage_error(self, argv, tmp_path,
                                                    capsys):
        # Rejected by argparse (exit 2) before anything runs, not a
        # traceback from the runner or a silent serial run.
        run_dir = tmp_path / "run"
        argv = [str(run_dir) if arg == "RUN" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not run_dir.exists()
