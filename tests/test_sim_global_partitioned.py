"""Tests for global EDF/RM (Dhall effect) and the partitioned simulator."""

import pytest

from repro.core.task import PeriodicTask
from repro.partition.heuristics import first_fit
from repro.sim.globaledf import (
    GlobalSimulator,
    dhall_task_set,
    simulate_global,
)
from repro.sim.partitioned import (
    PartitionedSimulator,
    reassign_after_failure,
)
from repro.sim.quantum import simulate_pfair
from repro.core.uniproc import UniTask
from repro.workload.spec import TaskSpec


class TestGlobalEDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalSimulator([], 0)
        with pytest.raises(ValueError):
            GlobalSimulator([], 2, policy="lifo")

    def test_underloaded_set_fine(self):
        tasks = [UniTask(1, 10), UniTask(2, 10), UniTask(3, 10)]
        res = simulate_global(tasks, 2, 200)
        assert res.miss_count == 0
        assert res.completed == 60

    @pytest.mark.parametrize("policy", ["edf", "rm"])
    def test_dhall_effect(self, policy):
        """Global EDF/RM misses the heavy task at utilization just above 1
        on M processors (Dhall & Liu)."""
        for m in (2, 4):
            tasks = dhall_task_set(m, scale=1000, epsilon_inverse=20)
            res = simulate_global(tasks, m, 4000, policy=policy)
            assert any(t[0] == "heavy" for t in res.misses), (
                f"expected the heavy task to miss under global {policy} on {m} CPUs"
            )

    def test_dhall_utilization_tends_low(self):
        """Per-processor utilization of the Dhall set tends to ~1/M·(1+...)
        — i.e. arbitrarily low fraction of capacity as eps shrinks."""
        m = 8
        tasks = dhall_task_set(m, scale=10000, epsilon_inverse=100)
        total_u = sum(t.utilization for t in tasks)
        assert total_u < 1 + 1.7  # far below the M = 8 capacity

    def test_pd2_schedules_dhall_set(self):
        """The same pathological shape is trivial for PD² (integer-scaled)."""
        m = 3
        # Integer analogue on a quantum grid: light (2, 10), heavy (10, 11).
        tasks = [PeriodicTask(2, 10) for _ in range(m)] + [PeriodicTask(10, 11)]
        res = simulate_pfair(tasks, m, 330)
        assert res.stats.miss_count == 0

    def test_dhall_grid_validation(self):
        with pytest.raises(ValueError):
            dhall_task_set(2, scale=5, epsilon_inverse=10)

    def test_migration_and_preemption_counting(self):
        tasks = dhall_task_set(2, scale=100, epsilon_inverse=10)
        res = simulate_global(tasks, 2, 1000)
        assert res.preemptions >= 0 and res.migrations >= 0


class TestPartitionedSim:
    def _packed(self):
        specs = [TaskSpec(1, 4, name="a"), TaskSpec(1, 4, name="b"),
                 TaskSpec(3, 4, name="c"), TaskSpec(2, 4, name="d")]
        return first_fit(specs).partition

    def test_partitioned_run_no_misses(self):
        part = self._packed()
        res = PartitionedSimulator(part).run(400)
        assert res.miss_count == 0
        assert res.completed > 0

    def test_rm_policy(self):
        part = self._packed()
        res = PartitionedSimulator(part, policy="rm").run(400)
        assert res.completed > 0

    def test_aggregation(self):
        part = self._packed()
        res = PartitionedSimulator(part).run(100)
        assert len(res.per_processor) == part.processors
        assert res.preemptions == sum(r.preemptions for r in res.per_processor)
        assert res.misses() == []


class TestFailureReassignment:
    def test_successful_reassignment(self):
        specs = [TaskSpec(1, 10, name=f"t{i}") for i in range(4)]
        part = first_fit(specs).partition
        part.new_bin()  # a spare processor
        ok, orphans = reassign_after_failure(part, 0)
        assert ok and not orphans
        assert len(part.bins[0]) == 0

    def test_failed_reassignment_with_fragmentation(self):
        """Three 0.6 tasks on three processors: lose one and its task fits
        nowhere although total utilization 1.8 < M - 1 = 2."""
        specs = [TaskSpec(6, 10, name=f"h{i}") for i in range(3)]
        part = first_fit(specs).partition
        assert part.processors == 3
        ok, orphans = reassign_after_failure(part, 2)
        assert not ok
        assert [s.name for s in orphans] == ["h2"]

    def test_pfair_tolerates_equivalent_failure(self):
        """The same load under PD²: lose 1 of 3 CPUs, total weight 1.8 <= 2
        — no misses (Sec. 5.4)."""
        from repro.fault.failures import FailureEvent, pd2_with_failures

        tasks = [PeriodicTask(6, 10) for _ in range(3)]
        res = pd2_with_failures(tasks, 3, 300, [FailureEvent(50, 1)])
        assert res.stats.miss_count == 0

    def test_bad_processor_index(self):
        part = first_fit([TaskSpec(1, 2, name="x")]).partition
        with pytest.raises(IndexError):
            reassign_after_failure(part, 5)
