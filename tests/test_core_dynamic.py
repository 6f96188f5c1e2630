"""Tests for dynamic joins, leaves, and reweighting (paper, Sec. 2 & 5.2)."""

import pytest

from repro.core.dynamic import AdmissionError, DynamicPfairSystem, earliest_leave_time
from repro.core.quantum import QuantumSimulator
from repro.core.rational import Weight
from repro.core.task import PeriodicTask


class TestEarliestLeaveTime:
    def test_never_scheduled_leaves_now(self):
        t = PeriodicTask(1, 4)
        assert earliest_leave_time(t, 0, now=17) == 17

    def test_light_task_rule(self):
        """Light: leave at d(T_i) + b(T_i) of the last-scheduled subtask."""
        t = PeriodicTask(1, 4)  # d(T1) = 4, b(T1) = 0
        assert earliest_leave_time(t, 1, now=0) == 4
        t2 = PeriodicTask(2, 5)  # d(T1) = 3, b(T1) = 1
        assert earliest_leave_time(t2, 1, now=0) == 4

    def test_heavy_task_rule(self):
        """Heavy: leave at the group deadline of the last-scheduled subtask."""
        t = PeriodicTask(8, 11)
        assert earliest_leave_time(t, 3, now=0) == 8   # GD(T3) = 8
        assert earliest_leave_time(t, 7, now=0) == 11  # GD(T7) = 11

    def test_now_dominates(self):
        t = PeriodicTask(1, 4)
        assert earliest_leave_time(t, 1, now=100) == 100


class TestJoins:
    def test_admission_respects_eq2(self):
        sys_ = DynamicPfairSystem(1)
        assert sys_.try_join(PeriodicTask(1, 2, name="a"))
        assert sys_.try_join(PeriodicTask(1, 2, name="b"))
        assert not sys_.try_join(PeriodicTask(1, 10, name="c"))

    def test_join_raises_when_full(self):
        sys_ = DynamicPfairSystem(1)
        sys_.join(PeriodicTask(1, 1, name="hog"))
        with pytest.raises(AdmissionError):
            sys_.join(PeriodicTask(1, 100, name="late"))

    def test_double_join_rejected(self):
        sys_ = DynamicPfairSystem(2)
        t = PeriodicTask(1, 2)
        sys_.join(t)
        with pytest.raises(AdmissionError):
            sys_.join(t)

    def test_past_eligibility_rejected(self):
        sys_ = DynamicPfairSystem(2)
        sys_.advance(10)
        with pytest.raises(AdmissionError):
            sys_.join(PeriodicTask(1, 2))  # phase 0, eligible at 0 < now
        sys_.join(PeriodicTask(1, 2, phase=10))  # ok

    def test_mid_run_join_never_misses(self):
        sys_ = DynamicPfairSystem(2)
        sys_.join(PeriodicTask(2, 3, name="a"))
        sys_.join(PeriodicTask(1, 2, name="b"))
        sys_.advance(12)
        sys_.join(PeriodicTask(2, 4, phase=12, name="c"))
        sys_.run_until(96)
        res = sys_.finish()
        assert res.stats.miss_count == 0


class TestLeaves:
    def test_leave_frees_capacity_at_departure(self):
        sys_ = DynamicPfairSystem(1)
        t = PeriodicTask(1, 2, name="a")
        sys_.join(t)
        sys_.advance(2)  # T1 scheduled somewhere in [0, 2)
        dep = sys_.request_leave(t)
        assert dep >= 2
        # Weight still committed until departure.
        big = PeriodicTask(3, 4, phase=dep, name="b")
        if dep > sys_.now:
            assert not sys_.try_join(PeriodicTask(3, 4, phase=sys_.now, name="b0"))
        sys_.run_until(dep)
        assert sys_.try_join(big)

    def test_departed_task_stops_executing(self):
        sys_ = DynamicPfairSystem(1)
        t = PeriodicTask(1, 2, name="a")
        sys_.join(t)
        sys_.advance(4)
        sys_.request_leave(t)
        quanta_at_leave = sys_.sim.stats.stats_for(t).quanta
        sys_.run_until(20)
        assert sys_.sim.stats.stats_for(t).quanta == quanta_at_leave

    def test_leave_then_rejoin_no_misses_for_others(self):
        """The anti-abuse property: a leave/rejoin cycle at the legal time
        cannot cause other tasks to miss."""
        sys_ = DynamicPfairSystem(2)
        stayers = [PeriodicTask(1, 2, name="s1"), PeriodicTask(2, 3, name="s2")]
        for s in stayers:
            sys_.join(s)
        churner = PeriodicTask(1, 3, name="c")
        sys_.join(churner)
        sys_.advance(6)
        dep = sys_.request_leave(churner)
        sys_.run_until(max(dep, 12))
        sys_.join(PeriodicTask(1, 3, phase=sys_.now, name="c2"))
        sys_.run_until(60)
        res = sys_.finish()
        assert res.stats.miss_count == 0

    def test_leave_unknown_task(self):
        sys_ = DynamicPfairSystem(1)
        with pytest.raises(KeyError):
            sys_.request_leave(PeriodicTask(1, 2))

    def test_leave_idempotent(self):
        sys_ = DynamicPfairSystem(1)
        t = PeriodicTask(1, 2, name="a")
        sys_.join(t)
        sys_.advance(2)
        d1 = sys_.request_leave(t)
        d2 = sys_.request_leave(t)
        assert d1 == d2


class TestReweighting:
    def test_reweight_replaces_task(self):
        sys_ = DynamicPfairSystem(2)
        t = PeriodicTask(1, 4, name="render")
        other = PeriodicTask(1, 2, name="steady")
        sys_.join(t)
        sys_.join(other)
        sys_.advance(4)
        join_time, new_task = sys_.reweight(t, 3, 4)
        sys_.run_until(join_time + 40)
        res = sys_.finish()
        assert res.stats.miss_count == 0
        # The replacement actually ran.
        assert sys_.sim.stats.stats_for(new_task).quanta > 0

    def test_reweight_of_a_departed_task_joins_now(self):
        """A task whose departure already took effect is replaced at the
        current slot, not at its past departure, and the join succeeds."""
        sys_ = DynamicPfairSystem(2)
        a = PeriodicTask(1, 2, name="a")
        sys_.join(a)
        sys_.advance(4)
        assert sys_.request_leave(a) == 4
        sys_.advance(6)
        join_time, new_task = sys_.reweight(a, 1, 2)
        assert join_time == new_task.phase == sys_.now == 10
        assert sys_.advance(1) == []
        assert sys_.find_task(new_task.task_id) is new_task
        assert sys_.committed_weight() == Weight(1, 2)
        sys_.advance(8)
        assert sys_.sim.stats.stats_for(new_task).quanta == 5  # slots 10..18
        assert sys_.finish().stats.miss_count == 0

    def test_failed_join_still_elapses_its_slot(self):
        """A queued join whose freed capacity was taken is dropped and
        reported; the slot it was due in still runs."""
        sys_ = DynamicPfairSystem(1)
        a = PeriodicTask(1, 2, name="a")
        sys_.join(a)
        sys_.advance(3)
        join_time, new_task = sys_.reweight(a, 1, 1)
        sys_.run_until(join_time)
        b = PeriodicTask(1, 2, phase=sys_.now, name="b")
        assert sys_.try_join(b)  # takes the half that a freed
        failed = sys_.advance(5)
        assert sys_.now == join_time + 5
        assert len(failed) == 1 and "would exceed" in failed[0]
        assert new_task.task_id not in {t.task_id for t in sys_.tasks()}
        assert sys_.find_task(new_task.task_id) is None
        assert sys_.committed_weight() == Weight(1, 2)
        assert sys_.sim.stats.stats_for(b).quanta >= 2
        assert sys_.advance(3) == []  # the dropped join is not retried
        assert sys_.finish().stats.miss_count == 0

    def test_committed_weight_accounting(self):
        sys_ = DynamicPfairSystem(2)
        a = PeriodicTask(1, 2, name="a")
        sys_.join(a)
        assert sys_.committed_weight() == Weight(1, 2)
        b = PeriodicTask(2, 3, name="b")
        sys_.join(b)
        assert sys_.committed_weight() == Weight(7, 6)
        sys_.advance(6)
        dep = sys_.request_leave(b)
        sys_.run_until(dep)
        assert sys_.committed_weight() == Weight(1, 2)


class TestRunControl:
    def test_run_backwards_rejected(self):
        sys_ = DynamicPfairSystem(1)
        sys_.advance(5)
        with pytest.raises(ValueError):
            sys_.run_until(3)

    def test_finish_reports_horizon(self):
        sys_ = DynamicPfairSystem(1)
        sys_.join(PeriodicTask(1, 2, name="a"))
        sys_.advance(10)
        res = sys_.finish()
        assert res.horizon == 10


class TestBoundedStats:
    def test_completed_jobs_drop_their_preemption_entries(self):
        """The dynamic system keeps only unfinished jobs' preemption
        counts; every counter still equals a plain simulator's run."""
        pairs = [(2, 3), (3, 7), (4, 9), (2, 5), (5, 11), (1, 4)]
        sys_ = DynamicPfairSystem(3)
        dyn_tasks = [PeriodicTask(e, p) for e, p in pairs]
        for t in dyn_tasks:
            sys_.join(t)
        sys_.run_until(2000)
        plain_tasks = [PeriodicTask(e, p) for e, p in pairs]
        plain = QuantumSimulator(plain_tasks, 3).run(2000)
        assert plain.stats.total_preemptions > len(pairs)  # entries to drop
        for d, p in zip(dyn_tasks, plain_tasks):
            ds, ps = sys_.sim.stats.stats_for(d), plain.stats.stats_for(p)
            assert (ds.quanta, ds.preemptions, ds.migrations, ds.last_job) \
                == (ps.quanta, ps.preemptions, ps.migrations, ps.last_job)
            unfinished = {j: n for j, n in ps.job_preemptions.items()
                          if j * d.execution > ds.quanta}
            assert ds.job_preemptions == unfinished
            assert len(ds.job_preemptions) <= 1
