"""Tests for model calibration and campaign persistence/merging."""

import math

import pytest

from repro.campaign import run_schedulability_campaign
from repro.analysis.persistence import (
    load_campaign,
    merge_campaigns,
    save_campaign,
)
from repro.analysis.stats import summarize
from repro.overheads.calibrate import calibrate_model


class TestCalibration:
    @pytest.fixture(scope="class")
    def model(self):
        return calibrate_model(task_counts=(15, 50), processor_counts=(1, 4),
                               task_sets=1, slots=150, edf_horizon=200_000)

    def test_measured_costs_positive(self, model):
        assert model.sched_edf(30) > 0
        assert model.pd2_sched_cost(30, 2) > 0

    def test_pd2_grows_with_m(self, model):
        assert model.pd2_sched_cost(30, 4) > model.pd2_sched_cost(30, 1)

    def test_carries_specified_constants(self, model):
        assert model.context_switch == 5
        assert model.quantum == 1000

    def test_usable_in_schedulability(self, model):
        from repro.analysis.schedulability import evaluate_task_set
        from repro.workload.generator import generate_task_set

        specs = generate_task_set(20, 4.0, seed=1)
        m = evaluate_task_set(specs, model).m_pd2
        assert m is not None and m >= 4

    def test_needs_two_task_counts(self):
        with pytest.raises(ValueError):
            calibrate_model(task_counts=(50,))


class TestPersistence:
    @pytest.fixture()
    def rows(self):
        return run_schedulability_campaign(15, [2.0, 3.0],
                                           sets_per_point=6, seed=2)

    def test_round_trip(self, tmp_path, rows):
        path = tmp_path / "camp.json"
        save_campaign(path, rows, seed=2, sets_per_point=6, note="test")
        back = load_campaign(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.utilization == b.utilization
            assert a.m_pd2.mean == b.m_pd2.mean
            assert a.m_pd2.n == b.m_pd2.n
            assert a.loss_ff.std == b.loss_ff.std

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro campaign"):
            load_campaign(path)

    def test_infinite_ci_round_trips(self, tmp_path):
        rows = run_schedulability_campaign(10, [1.0], sets_per_point=1, seed=0)
        path = tmp_path / "one.json"
        save_campaign(path, rows, seed=0, sets_per_point=1)
        back = load_campaign(path)
        assert math.isinf(back[0].m_pd2.ci99_halfwidth)

    def test_save_is_atomic(self, tmp_path, rows, monkeypatch):
        """A crash mid-write must never clobber the previous campaign."""
        import os as _os

        path = tmp_path / "camp.json"
        save_campaign(path, rows, seed=2, sets_per_point=6)
        good = path.read_text()

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            save_campaign(path, rows[:1], seed=3, sets_per_point=6)
        monkeypatch.undo()
        # The original file is intact and no .tmp sibling is left behind.
        assert path.read_text() == good
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_leaves_no_tmp_on_success(self, tmp_path, rows):
        path = tmp_path / "camp.json"
        save_campaign(path, rows, seed=2, sets_per_point=6)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestMerge:
    def test_merged_stats_match_pooled_sample(self):
        a = run_schedulability_campaign(15, [2.0], sets_per_point=6, seed=1)
        b = run_schedulability_campaign(15, [2.0], sets_per_point=6, seed=99)
        merged = merge_campaigns(a, b)[0]
        assert merged.m_pd2.n == 12
        # Verify against a directly pooled sample.
        from repro.analysis.schedulability import evaluate_task_set
        from repro.overheads.model import OverheadModel
        from repro.workload.generator import TaskSetGenerator

        model = OverheadModel()
        vals = []
        for seed in (1, 99):
            gen = TaskSetGenerator(seed + 7919 * 0)
            for _ in range(6):
                vals.append(evaluate_task_set(gen.generate(15, 2.0),
                                              model).m_pd2)
        pooled = summarize(vals)
        assert merged.m_pd2.mean == pytest.approx(pooled.mean)
        assert merged.m_pd2.std == pytest.approx(pooled.std)
        assert merged.m_pd2.ci99_halfwidth == pytest.approx(
            pooled.ci99_halfwidth)

    def test_grid_mismatch_rejected(self):
        a = run_schedulability_campaign(15, [2.0], sets_per_point=2, seed=1)
        b = run_schedulability_campaign(15, [3.0], sets_per_point=2, seed=2)
        with pytest.raises(ValueError, match="grid mismatch"):
            merge_campaigns(a, b)
        with pytest.raises(ValueError, match="grid sizes"):
            merge_campaigns(a, a + a)

    def test_infeasible_counts_add(self):
        a = run_schedulability_campaign(15, [2.0], sets_per_point=2, seed=1)
        merged = merge_campaigns(a, a)[0]
        assert merged.infeasible_pd2 == 2 * a[0].infeasible_pd2
