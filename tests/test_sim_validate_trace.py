"""Tests for schedule validators, traces, metrics, and the event queue."""

import pytest

from repro.core.task import PeriodicTask
from repro.core.events import EventQueue
from repro.core.metrics import DeadlineMiss, SimStats, TaskStats
from repro.sim.quantum import simulate_pfair
from repro.core.trace import ScheduleTrace, render_schedule, render_windows
from repro.sim.validate import (
    ValidationError,
    check_erfair_lags,
    check_pfair_lags,
    check_sequential,
    check_structure,
    check_windows,
    lag_series,
    validate_schedule,
)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(5, "b")
        q.push(1, "a")
        q.push(9, "c")
        assert q.peek_time() == 1
        assert q.pop() == (1, "a")
        assert q.pop() == (5, "b")

    def test_fifo_within_same_time(self):
        q = EventQueue()
        for x in "abc":
            q.push(3, x)
        assert q.pop_at(3) == ["a", "b", "c"]

    def test_pop_at_only_matching(self):
        q = EventQueue()
        q.push(1, "x")
        q.push(2, "y")
        assert q.pop_at(1) == ["x"]
        assert len(q) == 1
        assert bool(q)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, "x")

    def test_empty_peek(self):
        assert EventQueue().peek_time() is None


class TestTrace:
    def test_record_and_query(self):
        t = PeriodicTask(1, 2, name="t")
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(2, 1, t, 2)
        assert tr.horizon == 3
        assert [a.slot for a in tr.of_task(t)] == [0, 2]
        assert tr.slots_of(t) == [0, 2]
        assert len(tr.at(1)) == 0
        assert len(tr) == 2
        assert tr.quanta_in(t, 0, 2) == 1
        assert tr.quanta_in(t, 0, 3) == 2

    def test_allocation_fields(self):
        t = PeriodicTask(1, 2, name="t")
        tr = ScheduleTrace()
        tr.record(4, 1, t, 3)
        a = tr.at(4)[0]
        assert (a.slot, a.processor, a.task, a.subtask_index) == (4, 1, t, 3)

    def test_allocations_sorted(self):
        t = PeriodicTask(1, 2, name="t")
        tr = ScheduleTrace()
        tr.record(5, 0, t, 2)
        tr.record(1, 0, t, 1)
        assert [a.slot for a in tr.allocations()] == [1, 5]


class TestRendering:
    def test_render_windows_fig1a_shape(self):
        t = PeriodicTask(8, 11, name="T")
        art = render_windows(t, 1, 8)
        lines = art.splitlines()
        assert len(lines) == 9  # 8 subtasks + ruler
        # First window covers slots 0..1.
        assert "|--" in lines[0]

    def test_render_windows_with_schedule_marks(self):
        t = PeriodicTask(2, 4, name="T")
        art = render_windows(t, 1, 2, scheduled={1: 0, 2: 3})
        assert "#" in art

    def test_render_schedule(self):
        tasks = [PeriodicTask(1, 2, name="a"), PeriodicTask(1, 2, name="b")]
        res = simulate_pfair(tasks, 1, 8, trace=True)
        art = render_schedule(res.trace, tasks, 8)
        assert "a" in art and "b" in art
        # Every slot is used by exactly one of them (U = 1 on 1 CPU).
        body = [l for l in art.splitlines()[:-1]]
        used = sum(c.isdigit() for line in body for c in line)
        assert used == 8


class TestValidators:
    def _good_run(self):
        tasks = [PeriodicTask(2, 3) for _ in range(3)]
        res = simulate_pfair(tasks, 2, 30, trace=True)
        return res, tasks

    def test_valid_schedule_passes_everything(self):
        res, tasks = self._good_run()
        validate_schedule(res.trace, tasks, 2, 30, periodic_lags=True)

    def test_structure_catches_overcapacity(self):
        res, tasks = self._good_run()
        with pytest.raises(ValidationError):
            check_structure(res.trace, 1, 30)

    def test_structure_catches_double_processor(self):
        t1, t2 = PeriodicTask(1, 2), PeriodicTask(1, 2)
        tr = ScheduleTrace()
        tr.record(0, 0, t1, 1)
        tr.record(0, 0, t2, 1)
        with pytest.raises(ValidationError):
            check_structure(tr, 2)

    def test_structure_catches_parallelism(self):
        t = PeriodicTask(2, 2)
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(0, 1, t, 2)
        with pytest.raises(ValidationError):
            check_structure(tr, 2)

    def test_sequential_catches_out_of_order(self):
        t = PeriodicTask(2, 4)
        tr = ScheduleTrace()
        tr.record(0, 0, t, 2)
        tr.record(1, 0, t, 1)
        with pytest.raises(ValidationError):
            check_sequential(tr, [t])

    def test_windows_catches_early_execution(self):
        t = PeriodicTask(1, 4)
        tr = ScheduleTrace()
        tr.record(0, 0, t, 2)  # T2's window is [4, 8)
        with pytest.raises(ValidationError):
            check_windows(tr, [t])

    def test_windows_early_ok_with_flag(self):
        t = PeriodicTask(2, 4)  # T2 window [2,4); run at 1 is ER-legal
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(1, 0, t, 2)
        with pytest.raises(ValidationError):
            check_windows(tr, [t])
        check_windows(tr, [t], early_release=True)

    def test_windows_catches_late_execution(self):
        t = PeriodicTask(1, 4)
        tr = ScheduleTrace()
        tr.record(10, 0, t, 1)  # deadline 4
        with pytest.raises(ValidationError):
            check_windows(tr, [t], early_release=True)

    def test_lag_series_exact(self):
        t = PeriodicTask(1, 2)
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(2, 0, t, 2)
        series = lag_series(tr, t, 4)
        # lag*p at t=0..4: 0, 1-2=-1, 2-2=0, 3-4=-1, 4-4=0.
        assert series == [(0, 2), (-1, 2), (0, 2), (-1, 2), (0, 2)]

    def test_pfair_lags_catch_starvation(self):
        t = PeriodicTask(1, 2)
        tr = ScheduleTrace()  # never scheduled
        with pytest.raises(ValidationError):
            check_pfair_lags(tr, [t], 10)

    def test_erfair_allows_running_ahead(self):
        t = PeriodicTask(2, 4)
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(1, 0, t, 2)  # whole job up front
        check_erfair_lags(tr, [t], 4)
        with pytest.raises(ValidationError):
            check_pfair_lags(tr, [t], 4)


class TestMetrics:
    def test_task_stats_transitions(self):
        ts = TaskStats()
        ts.on_scheduled(0, 0, job=1)
        pre, mig = ts.on_scheduled(1, 0, job=1)
        assert (pre, mig) == (False, False)
        pre, mig = ts.on_scheduled(3, 1, job=1)  # gap within job + proc change
        assert (pre, mig) == (True, True)
        pre, mig = ts.on_scheduled(7, 1, job=2)  # gap across jobs: no preempt
        assert (pre, mig) == (False, False)
        assert ts.quanta == 4
        assert ts.preemptions == 1
        assert ts.migrations == 1

    def test_deadline_miss_tardiness(self):
        t = PeriodicTask(1, 2)
        m = DeadlineMiss(t, 1, deadline=2, completed_at=5)
        assert m.tardiness == 3
        assert DeadlineMiss(t, 1, 2, None).tardiness is None

    def test_sim_stats_aggregates(self):
        s = SimStats()
        t1, t2 = PeriodicTask(1, 2), PeriodicTask(1, 2)
        s.stats_for(t1).preemptions = 2
        s.stats_for(t2).migrations = 3
        assert s.total_preemptions == 2
        assert s.total_migrations == 3
        assert s.miss_count == 0
