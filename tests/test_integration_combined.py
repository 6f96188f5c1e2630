"""Cross-feature integration: the subsystems composed, as a user would.

Also covers two remaining Sec.-5 remarks:

* "EDF has been shown to perform poorly under overload" — under overload
  EDF exhibits the domino effect (every task misses), while PD² degrades
  *proportionally*: each task still receives close to its weight-share of
  the reduced capacity;
* receive-livelock amelioration (Sec. 5.3) — an interrupt-style task at
  full demand cannot starve application tasks under fair scheduling.
"""

import numpy as np
import pytest

from repro.core.dynamic import DynamicPfairSystem
from repro.core.pd2 import PD2Scheduler
from repro.core.supertask import Supertask, SupertaskSystem
from repro.core.task import IntraSporadicTask, PeriodicTask, SporadicTask
from repro.fault.failures import FailureEvent, pd2_with_failures
from repro.sim.export import result_to_dict
from repro.sim.quantum import QuantumSimulator, simulate_pfair
from repro.sim.staggered import simulate_staggered
from repro.core.uniproc import UniTask, simulate_uniproc


class TestOverloadBehaviour:
    def test_edf_domino_effect(self):
        """Overloaded uniprocessor EDF: *every* task ends up missing —
        the domino effect that makes naive EDF dangerous under overload."""
        tasks = [UniTask(3, 5, name="a"), UniTask(3, 5, name="b"),
                 UniTask(3, 5, name="c")]  # U = 1.8
        res = simulate_uniproc(tasks, 200)
        missing = {m[0] for m in res.misses}
        assert missing == {"a", "b", "c"}

    def test_pfair_overload_degrades_proportionally(self):
        """The same 1.8 overload on one CPU under PD²: allocations stay
        proportional to weights (each task gets ~1/3 of the processor),
        rather than some tasks being starved outright."""
        tasks = [PeriodicTask(3, 5, name=f"t{i}") for i in range(3)]
        res = simulate_pfair(tasks, 1, 300)
        shares = [res.stats.stats_for(t).quanta for t in tasks]
        assert sum(shares) == 300
        for s in shares:
            assert abs(s - 100) <= 3, f"share {s} far from proportional"

    def test_interrupt_flood_cannot_starve_applications(self):
        """Receive-livelock shape: a network-interrupt task offered at
        many times its share; application tasks keep their full service."""
        apps = [PeriodicTask(1, 4, name="app0"), PeriodicTask(1, 4, name="app1")]
        n_sub = 400
        irq = IntraSporadicTask(1, 2, offsets=[0] * n_sub,
                                eligible_times=[0] * n_sub, name="irq")
        res = simulate_pfair(apps + [irq], 1, 200)
        for app in apps:
            assert res.stats.stats_for(app).quanta == 50  # full entitlement
        app_misses = [m for m in res.stats.misses
                      if m.task.name.startswith("app")]
        assert not app_misses


class TestDynamicWithArrivalModels:
    def test_sporadic_task_joins_running_system(self):
        system = DynamicPfairSystem(2)
        system.join(PeriodicTask(1, 2, name="base"))
        system.advance(5)
        spor = SporadicTask(1, 4, name="spor")
        system.join(spor)
        spor.release_job(6)
        spor.release_job(12)
        system.run_until(40)
        res = system.finish()
        assert res.stats.miss_count == 0
        assert system.sim.stats.stats_for(spor).quanta == 2

    def test_is_task_with_bursts_in_dynamic_system(self):
        system = DynamicPfairSystem(1)
        system.join(PeriodicTask(1, 3, name="steady"))
        burst = IntraSporadicTask(1, 4, name="burst")
        system.join(burst)
        for k in range(6):
            burst.arrive(0 if k < 3 else 8)
        system.run_until(60)
        res = system.finish()
        assert res.stats.miss_count == 0


class TestSupertaskCompositions:
    def test_er_supertask_wastes_quanta_and_misses(self):
        """Caveat (ours, documented in core/supertask.py): early-releasing
        a *supertask* grants it quanta before its components' releases;
        the grants go idle and components miss even with reweighting.
        Supertasks must therefore stay on plain Pfair eligibility."""
        def build():
            S = Supertask([PeriodicTask(1, 6, name="c0"),
                           PeriodicTask(1, 12, name="c1")], name="S",
                          reweight=True)
            return [S, PeriodicTask(1, 2, name="o")], S

        tasks, S = build()
        eager = SupertaskSystem(tasks, 2, early_release=True)
        res, dispatches = eager.run(120)
        assert res.stats.miss_count == 0  # the top level itself is fine
        assert dispatches[S.task_id].idle_quanta > 0
        assert dispatches[S.task_id].miss_count > 0
        # Plain eligibility: safe.
        tasks2, S2 = build()
        plain = SupertaskSystem(tasks2, 2)
        _, dispatches2 = plain.run(120)
        assert dispatches2[S2.task_id].miss_count == 0

    def test_er_other_tasks_fine_if_supertask_stays_plain(self):
        """Mixed per-task ER is safe as long as the supertask itself is
        not early-released."""
        S = Supertask([PeriodicTask(1, 6, name="c0"),
                       PeriodicTask(1, 12, name="c1")], name="S",
                      reweight=True)
        other = PeriodicTask(1, 2, name="o", early_release=True)
        system = SupertaskSystem([S, other], 2)  # scheduler-wide ER off
        res, dispatches = system.run(120)
        assert res.stats.miss_count == 0
        assert dispatches[S.task_id].miss_count == 0

    def test_supertask_rm_internal_policy_safe_when_reweighted(self):
        S = Supertask([PeriodicTask(1, 4, name="c0"),
                       PeriodicTask(1, 8, name="c1")], name="S",
                      reweight=True)
        system = SupertaskSystem([S, PeriodicTask(1, 2, name="o")], 2,
                                 internal_policy="rm")
        res, dispatches = system.run(160)
        assert dispatches[S.task_id].miss_count == 0


class TestAlternativePoliciesAcrossSimulators:
    def test_staggered_with_pf_policy(self):
        from repro.core.priority import PFPriority

        tasks = [PeriodicTask(2, 3) for _ in range(3)]
        res = simulate_staggered(tasks, 2, 12, 360, offsets=[0, 0],
                                 policy=PFPriority())
        assert res.miss_count == 0

    def test_varquantum_with_epdf_policy(self):
        from repro.core.priority import EPDFPriority
        from repro.sim.varquantum import simulate_variable_quantum

        tasks = [PeriodicTask(1, 2), PeriodicTask(1, 2)]
        res = simulate_variable_quantum(tasks, 1, 10, 200,
                                        policy=EPDFPriority())
        assert res.miss_count == 0


class TestFaultPlusDynamics:
    def test_failure_then_join_respects_reduced_capacity(self):
        """After a failure, the *caller* re-checks Eq. (2) against the
        surviving capacity before admitting new work."""
        tasks = [PeriodicTask(1, 2, name=f"t{i}") for i in range(3)]  # U=1.5
        res = pd2_with_failures(tasks, 2, 120, [FailureEvent(40, 1)])
        # U = 1.5 > 1 surviving processor: misses are expected *after* the
        # failure, none before.
        assert all(m.deadline > 40 for m in res.stats.misses)
        assert res.stats.miss_count > 0

    def test_dynamic_leave_restores_failed_system(self):
        """Shedding load after a failure returns the system to health —
        the reweighting story driven through the dynamic API."""
        system = DynamicPfairSystem(2)
        tasks = [PeriodicTask(1, 2, name=f"t{i}") for i in range(3)]
        for t in tasks:
            system.join(t)
        system.advance(20)
        # "Failure": capacity drops to 1 → shed t2 (committed weight 1.5).
        departure = system.request_leave(tasks[2])
        system.run_until(max(departure, 24))
        assert system.committed_weight() <= 1
        # The remaining tasks fit one processor; future windows are met.
        # (We verify via a fresh 1-CPU run of the survivors.)
        survivors = [PeriodicTask(1, 2), PeriodicTask(1, 2)]
        res = simulate_pfair(survivors, 1, 60)
        assert res.stats.miss_count == 0


class TestExportOfComposedRuns:
    def test_dynamic_run_exports(self):
        system = DynamicPfairSystem(1, trace=True)
        system.join(PeriodicTask(1, 2, name="a"))
        system.advance(10)
        res = system.finish()
        d = result_to_dict(res)
        assert d["horizon"] == 10
        assert any(t["name"] == "a" for t in d["tasks"])
