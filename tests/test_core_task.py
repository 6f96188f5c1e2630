"""Tests for the task models: periodic, sporadic, intra-sporadic, TaskSet."""

import pytest
from hypothesis import given, strategies as st

from repro.core.rational import Weight
from repro.core.subtask import (b_bit, group_deadline, pseudo_deadline,
                                pseudo_release)
from repro.core.task import (
    IntraSporadicTask,
    PeriodicTask,
    PfairTask,
    SporadicTask,
    TaskSet,
)


class TestPeriodic:
    def test_synchronous_matches_table(self):
        """The inlined closed forms give the subtask functions' values."""
        for e, p in ((3, 7), (8, 11), (5, 5), (1, 2)):
            t = PeriodicTask(e, p)
            for i in range(1, 3 * e + 1):
                st_ = t.subtask(i)
                assert st_.release == pseudo_release(e, p, i)
                assert st_.deadline == pseudo_deadline(e, p, i)
                assert st_.b_bit == b_bit(e, p, i)
                assert st_.group_deadline == group_deadline(e, p, i)
                assert st_.eligible == st_.release

    def test_phase_shifts_everything(self):
        base = PeriodicTask(3, 7)
        shifted = PeriodicTask(3, 7, phase=5)
        for i in range(1, 10):
            a, b = base.subtask(i), shifted.subtask(i)
            assert b.release == a.release + 5
            assert b.deadline == a.deadline + 5
            assert b.b_bit == a.b_bit

    def test_phase_shifts_group_deadline(self):
        base = PeriodicTask(8, 11)
        shifted = PeriodicTask(8, 11, phase=3)
        assert shifted.subtask(3).group_deadline == base.subtask(3).group_deadline + 3

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(1, 2, phase=-1)

    def test_job_index_and_last_of_job(self):
        t = PeriodicTask(3, 7)
        assert t.subtask(1).job_index == 1
        assert t.subtask(3).job_index == 1
        assert t.subtask(4).job_index == 2
        assert t.subtask(3).is_last_of_job()
        assert not t.subtask(4).is_last_of_job()

    def test_subtasks_until(self):
        t = PeriodicTask(2, 5)
        subs = list(t.subtasks_until(10))
        # Releases: 0, 2, 5, 7 < 10.
        assert [s.index for s in subs] == [1, 2, 3, 4]

    def test_last_subtask_truncates(self):
        t = PeriodicTask(2, 5)
        t.last_subtask = 3
        assert t.subtask(3) is not None
        assert t.subtask(4) is None

    def test_names_unique_by_default(self):
        a, b = PeriodicTask(1, 2), PeriodicTask(1, 2)
        assert a.name != b.name
        assert a.task_id != b.task_id


class TestSporadic:
    def test_releases_shift_jobs(self):
        t = SporadicTask(2, 5, job_releases=[0, 8])  # job 2 is 3 late
        # Job 1 subtasks at pattern times.
        assert t.subtask(1).release == 0
        assert t.subtask(2).release == 2
        # Job 2 pattern releases are 5, 7; shifted by theta = 8 - 5 = 3.
        assert t.subtask(3).release == 8
        assert t.subtask(4).release == 10

    def test_unknown_future_job(self):
        t = SporadicTask(2, 5, job_releases=[0])
        assert t.subtask(2) is not None
        assert t.subtask(3) is None
        t.release_job(6)
        assert t.subtask(3).release == 6 + 0  # pattern r=5, theta=1

    def test_separation_enforced(self):
        t = SporadicTask(2, 5, job_releases=[0])
        with pytest.raises(ValueError):
            t.release_job(4)

    def test_negative_first_release_rejected(self):
        with pytest.raises(ValueError):
            SporadicTask(1, 3, job_releases=[-1])


class TestIntraSporadic:
    def test_paper_fig1b_late_subtask(self):
        """Fig. 1(b): an IS task where T5 becomes eligible one slot late."""
        t = IntraSporadicTask(8, 11, offsets=[0, 0, 0, 0, 1, 1, 1, 1])
        base = PeriodicTask(8, 11)
        for i in range(1, 5):
            assert t.subtask(i).release == base.subtask(i).release
        for i in range(5, 9):
            assert t.subtask(i).release == base.subtask(i).release + 1
            assert t.subtask(i).deadline == base.subtask(i).deadline + 1

    def test_offsets_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            IntraSporadicTask(2, 5, offsets=[3, 1])

    def test_early_eligibility(self):
        t = IntraSporadicTask(2, 8, offsets=[0, 0], eligible_times=[0, 0])
        # Second subtask pattern release is 4, but it is eligible at 0.
        assert t.subtask(2).release == 4
        assert t.subtask(2).eligible == 0

    def test_eligibility_after_release_rejected(self):
        with pytest.raises(ValueError):
            IntraSporadicTask(2, 8, offsets=[0, 0], eligible_times=[0, 99])

    def test_arrival_feed(self):
        t = IntraSporadicTask(1, 4)
        assert t.subtask(1) is None
        assert t.arrive(2) == 1
        assert t.subtask(1).release == 2
        assert t.subtask(2) is None


class TestTaskSet:
    def test_feasibility_eq2(self):
        ts = TaskSet([PeriodicTask(2, 3) for _ in range(3)])
        assert ts.total_weight() == Weight(2, 1)
        assert ts.is_feasible(2)
        assert not ts.is_feasible(1)

    def test_min_processors(self):
        ts = TaskSet([PeriodicTask(2, 3) for _ in range(3)])
        assert ts.min_processors() == 2
        assert TaskSet([PeriodicTask(1, 10)]).min_processors() == 1
        assert TaskSet([]).min_processors() == 1

    def test_hyperperiod(self):
        ts = TaskSet([PeriodicTask(1, 4), PeriodicTask(1, 6)])
        assert ts.hyperperiod() == 12
        assert TaskSet([]).hyperperiod() == 1

    def test_container_protocol(self):
        a = PeriodicTask(1, 2)
        ts = TaskSet([a])
        assert len(ts) == 1
        assert ts[0] is a
        assert list(ts) == [a]
        b = PeriodicTask(1, 3)
        ts.add(b)
        assert len(ts) == 2

    def test_feasibility_needs_positive_processors(self):
        with pytest.raises(ValueError):
            TaskSet([]).is_feasible(0)


@given(st.integers(1, 20).flatmap(lambda p: st.tuples(st.integers(1, p), st.just(p))),
       st.integers(0, 30))
def test_prop_is_task_releases_never_decrease(ep, extra):
    """IS offsets nondecreasing => absolute releases nondecreasing."""
    e, p = ep
    offsets = [0, extra] + [extra] * (2 * e)
    t = IntraSporadicTask(e, p, offsets=offsets)
    prev = -1
    for i in range(1, len(offsets) + 1):
        r = t.subtask(i).release
        assert r >= prev
        prev = r
