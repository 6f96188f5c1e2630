"""Tests for the command-line interface and the shared figure builders."""

import json
import socket

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

    @pytest.mark.parametrize("tasks, message", [
        (3, "compare: 'tasks' must be a list\n"),
        ([{"name": "a", "execution": 4000, "period": 10000,
           "deadline": 4000}],
         "compare: a: deadline 4000 is below its period 10000; the "
         "analysis needs implicit deadlines\n"),
    ], ids=["malformed", "constrained-deadline"])
    def test_compare_bad_file_is_a_usage_error(self, tasks, message,
                                               tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"tasks": tasks}))
        assert main(["compare", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    @pytest.mark.parametrize("content, message", [
        (json.dumps({"tasks": 3}), "admit: 'tasks' must be a list\n"),
        (None, "admit: "),
    ], ids=["malformed", "missing"])
    def test_admit_bad_file_is_a_usage_error(self, content, message,
                                             tmp_path, capsys):
        # Fails while reading the file, before any connection is made:
        # exit 2 (usage), not 1 (rejected), and no traceback.
        path = tmp_path / "set.json"
        if content is not None:
            path.write_text(content)
        assert main(["admit", "--file", str(path), "--port", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert captured.err.count("\n") == 1

    def test_admit_unreachable_service_is_not_a_rejection(self, capsys):
        # Exit 1 is "rejected"; a closed port is exit 3, with one line.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["admit", "1/2", "--host", "127.0.0.1",
                     "--port", str(port)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("admit failed: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

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

    @pytest.mark.parametrize("argv, message", [
        (["schedule", "1/2", "--horizon", "-5"],
         "expected a nonnegative integer, got -5"),
        (["schedule", "1/2", "--processors", "-1"],
         "expected a nonnegative integer, got -1"),
        (["schedule", "1/2", "--width", "-5"],
         "expected a positive integer, got -5"),
        (["schedule", "1/2", "--width", "0"],
         "expected a positive integer, got 0"),
        (["schedule", "1/2", "--horizon", "ten"],
         "expected a nonnegative integer, got 'ten'"),
        (["windows", "2/5", "--subtasks", "-3"],
         "expected a nonnegative integer, got -3"),
    ], ids=["horizon", "processors", "width", "zero-width", "not-a-number",
            "subtasks"])
    def test_negative_counts_are_usage_errors(self, argv, message, capsys):
        # One usage line and exit 2, not a traceback (exit 1) or an
        # empty table (exit 0).
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not captured.out

    def test_zero_counts_keep_their_defaults(self, capsys):
        assert main(["windows", "2/5", "--subtasks", "0"]) == 0
        assert "T4" in capsys.readouterr().out   # two jobs of two subtasks
        assert main(["schedule", "1/2", "1/3", "--processors", "0",
                     "--horizon", "0"]) == 0
        out = capsys.readouterr().out
        assert "PD² on 1 processors, 12 slots" in out

    @pytest.mark.parametrize("argv, message", [
        (["fig3", "-j", "0"], "expected a positive integer"),
        (["fig4", "--jobs", "-1"], "expected a positive integer"),
        (["campaign", "run", "RUN", "-j", "0"],
         "expected a positive integer"),
        # `--workers` takes only a node list; a bare count is not `-j`.
        (["campaign", "run", "RUN", "--workers", "0"],
         "worker node must be host:port"),
        (["campaign", "resume", "RUN", "--jobs", "-2"],
         "expected a positive integer"),
        (["worker", "--serve", "-j", "0"], "expected a positive integer"),
    ], ids=["fig3", "fig4", "campaign-run", "campaign-run-workers",
            "campaign-resume", "worker"])
    def test_nonpositive_job_count_is_a_usage_error(self, argv, message,
                                                    tmp_path, capsys):
        # Rejected by argparse (exit 2) before anything runs, not a
        # traceback from the runner or a silent serial run.
        run_dir = tmp_path / "run"
        argv = [str(run_dir) if arg == "RUN" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not run_dir.exists()
