"""Tests for statistics, schedulability evaluation, campaigns, and reports."""

import math

import pytest

from repro.analysis.experiments import utilization_grid
from repro.analysis.report import format_series_plot, format_table
from repro.campaign import batch_analyze, run_schedulability_campaign
from repro.analysis.schedulability import (ANALYSIS_CACHE, evaluate_columns,
                                           evaluate_task_set)
from repro.analysis.stats import confidence_halfwidth, summarize
from repro.overheads.model import OverheadModel
from repro.partition.demand import edf_feasible
from repro.workload.generator import generate_task_set
from repro.workload.spec import TaskColumns, TaskSpec


class TestStats:
    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.ci99_halfwidth == float("inf")

    def test_constant_sample(self):
        s = summarize([3.0] * 10)
        assert s.mean == 3.0
        assert s.std == 0.0
        assert s.ci99_halfwidth == 0.0
        assert s.relative_error == 0.0

    def test_known_t_quantile(self):
        # n=2, values 0 and 2: mean 1, std sqrt(2), half = 63.657*1 = ...
        s = summarize([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std == pytest.approx(math.sqrt(2.0))
        assert s.ci99_halfwidth == pytest.approx(63.657 * math.sqrt(2) / math.sqrt(2))

    def test_large_sample_uses_normal(self):
        vals = [0.0, 1.0] * 50
        s = summarize(vals)
        expected = 2.576 * s.std / math.sqrt(100)
        assert s.ci99_halfwidth == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_halfwidth_helper(self):
        assert confidence_halfwidth([1.0, 1.0, 1.0]) == 0.0


class TestSchedulability:
    def test_zero_overheads_pd2_matches_ideal(self):
        """With no overheads and quantum-aligned costs, PD² needs exactly
        ceil(U) processors."""
        z = OverheadModel.zero(quantum=1000)
        specs = [TaskSpec(1000, 2000, name=str(i)) for i in range(5)]  # U=2.5
        assert evaluate_task_set(specs, z).m_pd2 == 3

    def test_empty_set(self):
        """Every entry point gives the empty set one processor on both
        sides and no inflation; a campaign row would otherwise count it
        EDF-infeasible while the service says it fits on one."""
        model = OverheadModel()
        [batch] = batch_analyze([[]])
        assert (batch["m_pd2"], batch["m_edf_ff"]) == (1, 1)
        for pt in (evaluate_task_set([], model),
                   evaluate_columns(TaskColumns.of([]), model)):
            assert (pt.m_pd2, pt.m_ff) == (1, 1)
            assert (pt.inflated_u_pd2, pt.inflated_u_edf) == (0.0, 0.0)
            assert (pt.n_tasks, pt.utilization) == (0, 0.0)
            # Its one processor is not fragmentation: nothing is lost.
            assert pt.loss_pfair == pt.loss_edf == pt.loss_ff == 0.0

    def test_pd2_infeasible_task(self):
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 10.0,
                          sched_pd2=lambda n, mm: 10.0)
        specs = [TaskSpec(50_000, 50_000, name="full")]
        assert evaluate_task_set(specs, m).m_pd2 is None

    def test_pd2_ge_ideal(self):
        model = OverheadModel()
        specs = generate_task_set(30, 6.0, seed=5)
        m = evaluate_task_set(specs, model).m_pd2
        assert m is not None and m >= 6

    def test_evaluate_task_set_consistency(self):
        model = OverheadModel()
        specs = generate_task_set(40, 8.0, seed=9)
        pt = evaluate_task_set(specs, model)
        assert pt.n_tasks == 40
        assert pt.utilization == pytest.approx(8.0, rel=0.01)
        assert pt.m_pd2 >= 8 and pt.m_ff >= 8
        assert pt.inflated_u_pd2 > pt.utilization
        assert pt.inflated_u_edf > pt.utilization
        # PD² provisions exactly ceil of its inflated weight.
        assert pt.m_pd2 == math.ceil(pt.inflated_u_pd2 - 1e-12)
        # Loss identities.
        assert pt.loss_pfair == pytest.approx(
            (pt.inflated_u_pd2 - pt.utilization) / pt.m_pd2)
        assert pt.loss_edf == pytest.approx(
            (pt.inflated_u_edf - pt.utilization) / pt.m_ff)
        assert pt.loss_ff == pytest.approx(
            (pt.m_ff - math.ceil(pt.inflated_u_edf)) / pt.m_ff)
        assert pt.pd2_iterations_max >= 1

    def test_losses_none_when_infeasible(self):
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 10.0,
                          sched_pd2=lambda n, mm: 10.0)
        specs = [TaskSpec(50_000, 50_000, name="full")]
        pt = evaluate_task_set(specs, m)
        assert pt.m_pd2 is None and pt.loss_pfair is None
        # EDF side also fails: e' > p.
        assert pt.m_ff is None and pt.loss_edf is None and pt.loss_ff is None


#: Three tasks ``(e, p, D)`` of total utilization 0.99 whose demand is
#: 9,900 µs by t = 4,000 µs: infeasible on one processor, yet a
#: utilization test that ignored the deadlines would pack them on one.
CONSTRAINED = [TaskSpec(4000, 10_000, name="a", deadline=4000),
               TaskSpec(4000, 10_000, name="b", deadline=4000),
               TaskSpec(1900, 10_000, name="c", deadline=2000)]


class TestRefusedInputs:
    """``evaluate_task_set`` refuses what the column kernels cannot carry
    instead of answering for the set with those fields dropped."""

    def test_constrained_deadline_is_refused(self):
        assert not edf_feasible(CONSTRAINED)
        before = ANALYSIS_CACHE.info()
        with pytest.raises(ValueError, match="^a: deadline 4000 is "
                                             "below its period 10000"):
            evaluate_task_set(CONSTRAINED, OverheadModel())
        # Refused before the key: nothing was read or written.
        assert ANALYSIS_CACHE.info() == before
        with pytest.raises(ValueError, match="^task #1: deadline"):
            evaluate_task_set([TaskSpec(1000, 2000),
                               TaskSpec(1000, 2000, deadline=1500)],
                              OverheadModel())

    def test_critical_section_is_refused(self):
        specs = [TaskSpec(1000, 4000, name="lock", max_section=500,
                          resource="r")]
        with pytest.raises(ValueError, match="^lock: critical sections"):
            evaluate_task_set(specs, OverheadModel())

    def test_deadline_equal_to_the_period_is_accepted(self):
        model = OverheadModel()
        implicit = [TaskSpec(4000, 10_000, name=n) for n in "ab"]
        explicit = [TaskSpec(4000, 10_000, name=n, deadline=10_000)
                    for n in "ab"]
        assert evaluate_task_set(explicit, model) == \
            evaluate_task_set(implicit, model)

    def test_batch_reports_a_refused_set_per_set(self):
        good = [TaskSpec(1000, 2000, name="g")]
        ok, refused = batch_analyze([good, CONSTRAINED])
        assert set(ok) == {"m_pd2", "m_edf_ff", "utilization", "n_tasks"}
        assert refused == {"error": "a: deadline 4000 is below its period "
                                    "10000; the analysis needs implicit "
                                    "deadlines"}


class TestCampaign:
    def test_utilization_grid_matches_paper_range(self):
        grid = utilization_grid(50, points=5)
        assert grid[0] == pytest.approx(50 / 30)
        assert grid[-1] == pytest.approx(50 / 3)
        assert utilization_grid(50, points=1) == [50 / 3]

    def test_campaign_runs_and_is_reproducible(self):
        rows1 = run_schedulability_campaign(
            20, [2.0, 4.0], sets_per_point=5, seed=3)
        rows2 = run_schedulability_campaign(
            20, [2.0, 4.0], sets_per_point=5, seed=3)
        assert len(rows1) == 2
        assert rows1[0].m_pd2.mean == rows2[0].m_pd2.mean
        assert rows1[1].loss_ff.mean == rows2[1].loss_ff.mean

    def test_campaign_progress_callback(self):
        messages = []
        run_schedulability_campaign(10, [1.0], sets_per_point=2, seed=0,
                                    progress=messages.append)
        assert len(messages) == 1

    def test_more_utilization_needs_more_processors(self):
        rows = run_schedulability_campaign(
            20, [2.0, 6.0], sets_per_point=5, seed=1)
        assert rows[1].m_pd2.mean > rows[0].m_pd2.mean
        assert rows[1].m_ff.mean > rows[0].m_ff.mean


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_nan_rendered_as_dash(self):
        out = format_table(["x"], [[float("nan")]])
        assert "-" in out.splitlines()[-1]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_series_plot(self):
        xs = [0.0, 1.0, 2.0]
        out = format_series_plot(xs, {"P": [0, 1, 2], "E": [2, 1, 0]},
                                 width=20, height=5, title="demo")
        assert "demo" in out
        assert "P" in out and "E" in out

    def test_series_plot_empty(self):
        assert format_series_plot([], {}) == "(no data)"
