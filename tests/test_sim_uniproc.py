"""Tests for the event-driven uniprocessor simulator (EDF, RM, DM, CBS)."""

import pytest

from repro.core.uniproc import (
    CBSServer,
    UniprocSimulator,
    UniTask,
    simulate_uniproc,
)


class TestUniTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            UniTask(0, 5)
        with pytest.raises(ValueError):
            UniTask(1, 0)
        with pytest.raises(ValueError):
            UniTask(1, 5, deadline=0)
        with pytest.raises(ValueError):
            UniTask(1, 5, releases=[0, 3])  # separation < period

    def test_periodic_releases(self):
        t = UniTask(1, 10, phase=3)
        assert [t.release_time(i) for i in (1, 2, 3)] == [3, 13, 23]

    def test_sporadic_releases_finite(self):
        t = UniTask(1, 10, releases=[0, 25])
        assert t.release_time(2) == 25
        assert t.release_time(3) is None

    def test_actual_exec_override(self):
        t = UniTask(2, 10, actual_exec=lambda i: 3 if i == 1 else 2)
        assert t.exec_time(1) == 3
        assert t.exec_time(2) == 2

    def test_actual_exec_must_be_positive(self):
        t = UniTask(2, 10, actual_exec=lambda i: 0)
        with pytest.raises(ValueError):
            t.exec_time(1)

    def test_utilization(self):
        assert UniTask(3, 12).utilization == 0.25


class TestEDF:
    def test_full_utilization_never_misses(self):
        tasks = [UniTask(2, 4), UniTask(3, 6)]  # U = 1 exactly
        res = simulate_uniproc(tasks, 1200)
        assert res.miss_count == 0

    def test_overload_misses(self):
        tasks = [UniTask(3, 4), UniTask(3, 6)]  # U = 1.25
        res = simulate_uniproc(tasks, 600)
        assert res.miss_count > 0

    def test_response_times_recorded(self):
        t = UniTask(2, 10, name="solo")
        res = simulate_uniproc([t], 100)
        assert res.response_max["solo"] == 2
        assert res.mean_response("solo") == 2
        assert res.completed == 10

    def test_preemption_on_earlier_deadline(self):
        long = UniTask(6, 20, name="long")
        short = UniTask(1, 5, phase=1, name="short")
        res = simulate_uniproc([long, short], 20)
        assert res.preemptions >= 1
        assert res.miss_count == 0

    def test_no_preemption_on_equal_deadline(self):
        a = UniTask(1, 10, name="a")
        b = UniTask(1, 10, name="b")
        res = simulate_uniproc([a, b], 10)
        assert res.preemptions == 0

    def test_unfinished_job_counts_as_miss(self):
        t = UniTask(10, 10)
        res = simulate_uniproc([t, UniTask(10, 10)], 10)
        assert any(m[3] is None for m in res.misses)

    def test_invocation_timing(self):
        tasks = [UniTask(2, 10), UniTask(3, 15)]
        res = simulate_uniproc(tasks, 300, time_invocations=True)
        assert res.invocations > 0
        assert res.sched_ns_total > 0
        assert res.mean_invocation_ns > 0


class TestRM:
    def test_harmonic_full_utilization(self):
        """RM schedules harmonic sets up to U = 1."""
        tasks = [UniTask(1, 2), UniTask(2, 4)]  # harmonic, U = 1
        res = simulate_uniproc(tasks, 400, policy="rm")
        assert res.miss_count == 0

    def test_classic_rm_failure_above_bound(self):
        """U = 1 non-harmonic set that RM famously misses but EDF meets."""
        tasks = [UniTask(2, 4, name="hi"), UniTask(3, 6, name="lo")]
        rm = simulate_uniproc([UniTask(2, 4), UniTask(3, 6)], 120, policy="rm")
        edf = simulate_uniproc(tasks, 120, policy="edf")
        assert rm.miss_count > 0
        assert edf.miss_count == 0

    def test_static_priority_by_period(self):
        short = UniTask(1, 5, phase=3, name="short")
        long = UniTask(10, 30, name="long")
        res = simulate_uniproc([long, short], 30, policy="rm")
        # short must preempt long at t = 3.
        assert res.preemptions >= 1
        assert res.response_max["short"] == 1

    def test_dm_uses_relative_deadline(self):
        # Same periods; tighter deadline gets priority under DM.
        urgent = UniTask(2, 20, deadline=5, name="urgent")
        lax = UniTask(10, 20, name="lax")
        res = simulate_uniproc([lax, urgent], 20, policy="dm")
        assert res.response_max["urgent"] == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            UniprocSimulator([], policy="fifo")


class TestCBS:
    def test_validation(self):
        with pytest.raises(ValueError):
            CBSServer(0, 10)
        with pytest.raises(ValueError):
            CBSServer(11, 10)

    def test_cbs_requires_edf(self):
        with pytest.raises(ValueError):
            UniprocSimulator([], policy="rm", servers=[CBSServer(1, 10)])

    def test_server_serves_within_bandwidth(self):
        srv = CBSServer(2, 10, requests=[(0, 2), (10, 2), (20, 2)])
        res = UniprocSimulator([UniTask(8, 10, name="t")], servers=[srv]).run(100)
        assert srv.served == 3
        assert res.miss_count == 0  # t + server = exactly 1.0 bandwidth

    def test_overrun_isolated_from_victim(self):
        victim = UniTask(2, 10, name="victim")
        srv = CBSServer(1, 4, requests=[(4 * k, 4) for k in range(100)])
        res = UniprocSimulator([victim], servers=[srv]).run(1000)
        assert sum(1 for m in res.misses if m[0] == "victim") == 0
        assert srv.recharges > 0  # the overrun burned budgets

    def test_overrun_without_cbs_hurts_victim(self):
        victim = UniTask(2, 10, name="victim")
        bad = UniTask(1, 4, name="bad", actual_exec=lambda i: 4)
        res = simulate_uniproc([victim, bad], 1000)
        assert sum(1 for m in res.misses if m[0] == "victim") > 0

    def test_deadline_postponement_on_recharge(self):
        srv = CBSServer(2, 10)
        srv.on_arrival(0, 6)
        assert srv.d == 10
        srv.execute(2)
        assert srv.time_to_decision() == 0
        assert srv.decide()  # recharge
        assert srv.d == 20
        assert srv.c == 2

    def test_admission_rule_abeni_buttazzo(self):
        """Replenish iff c >= (d − r)·U (serving with the current pair
        would exceed the reserved bandwidth); otherwise keep (c, d)."""
        srv = CBSServer(5, 10)
        srv.on_arrival(0, 2)
        assert srv.d == 10
        srv.execute(2)
        srv.decide()
        # r=1: c=3 < (10-1)*0.5 = 4.5 -> keep the current pair.
        srv.on_arrival(1, 2)
        assert srv.d == 10 and srv.c == 3
        srv.execute(2)
        srv.decide()
        # r=9: c=1 >= (10-9)*0.5 = 0.5 -> replenish: d = 9 + 10, c = Q.
        srv.on_arrival(9, 2)
        assert srv.d == 19 and srv.c == 5
