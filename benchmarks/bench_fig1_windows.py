"""Fig. 1 — Pfair windows of a weight-8/11 periodic task and an IS task.

Regenerates both panels as ASCII diagrams plus the parameter table
(r, d, b, group deadline) the figure annotates.  The benchmark times the
closed-form window parameters of one job — what every scheduler run
computes per subtask.
"""

from conftest import write_report

from repro.analysis.figures import fig1_report
from repro.core.subtask import (b_bit, group_deadline, pseudo_deadline,
                                pseudo_release)
from repro.core.task import PeriodicTask


def _one_job(e, p):
    return [(pseudo_release(e, p, i), pseudo_deadline(e, p, i),
             b_bit(e, p, i), group_deadline(e, p, i))
            for i in range(1, e + 1)]


def test_fig1_windows(benchmark):
    job = benchmark(_one_job, 8, 11)
    assert [gd for *_, gd in job] == [4, 4, 8, 8, 8, 11, 11, 11]
    report = fig1_report()
    # Spot checks against the paper's stated values.
    assert " 8" in report and " 11" in report
    write_report("fig1_windows.txt", report)


def test_fig1_group_deadlines_match_paper():
    task = PeriodicTask(8, 11)
    assert task.subtask(3).group_deadline == 8
    assert task.subtask(7).group_deadline == 11
