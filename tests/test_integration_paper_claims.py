"""Integration tests: the paper's quantitative in-text claims, end to end.

Each test corresponds to a claim in the experiment index of DESIGN.md §3 —
these are the cross-cutting checks that the analytical machinery (weights,
schedulability tests, bounds) and the simulators agree with each other.
"""

import math

import numpy as np
import pytest

from repro.analysis.schedulability import evaluate_task_set
from repro.core.pd2 import schedule_pd2
from repro.core.rational import weight_sum
from repro.core.task import PeriodicTask, TaskSet
from repro.overheads.inflation import pd2_inflate_set
from repro.overheads.model import OverheadModel
from repro.partition.heuristics import PartitionFailure, first_fit, partition
from repro.partition.partitioner import edf_ff
from repro.sim.partitioned import PartitionedSimulator
from repro.sim.quantum import simulate_pfair
from repro.workload.generator import (
    TaskSetGenerator,
    specs_to_pfair_tasks,
)
from repro.workload.spec import TaskSpec, total_utilization


class TestSection1Claims:
    def test_three_tasks_two_processors_partitioning_fails_pfair_succeeds(self):
        """The paper's opening example (Sec. 1)."""
        specs = [TaskSpec(2, 3, name=f"t{i}") for i in range(3)]
        with pytest.raises(PartitionFailure):
            partition(specs, max_bins=2)
        tasks = [PeriodicTask(2, 3) for _ in range(3)]
        res = simulate_pfair(tasks, 2, 60)
        assert res.stats.miss_count == 0


class TestCrossValidation:
    """If the analytical test says yes, the simulator must agree."""

    def test_pd2_feasible_sets_simulate_clean(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, 4))
            # Integer-quanta tasks with total weight <= m.
            tasks = []
            while True:
                p = int(rng.integers(2, 16))
                e = int(rng.integers(1, p + 1))
                cand = tasks + [PeriodicTask(e, p)]
                if weight_sum(t.weight for t in cand) <= m:
                    tasks = cand
                    if len(tasks) >= n:
                        break
                elif tasks:
                    break
            ts = TaskSet(tasks)
            assert ts.is_feasible(m)
            horizon = min(ts.hyperperiod() * 2, 500)
            res = simulate_pfair(tasks, m, horizon)
            assert res.stats.miss_count == 0

    def test_edf_ff_packings_simulate_clean(self):
        gen = TaskSetGenerator(23, min_period=50_000, max_period=200_000)
        specs = gen.generate(12, 3.0)
        packing = edf_ff(specs)
        sim = PartitionedSimulator(packing.partition)
        res = sim.run(600_000)
        assert res.miss_count == 0

    def test_m_pd2_simulates_clean_scaled(self):
        """Inflation-based provisioning is safe in a scaled simulation:
        take the quantised inflated weights and run PD² on M_pd2."""
        model = OverheadModel()
        gen = TaskSetGenerator(31)
        specs = gen.generate(10, 3.0)
        m = evaluate_task_set(specs, model).m_pd2
        assert m is not None
        inflations = pd2_inflate_set(specs, model, m)
        tasks = [PeriodicTask(inf.quanta, inf.period_quanta)
                 for inf in inflations]
        res = simulate_pfair(tasks, m, 400)
        assert res.stats.miss_count == 0


class TestFig3Shape:
    """The headline comparison: who needs how many processors."""

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.campaign import run_schedulability_campaign

        # Three probe points: low, mid, high utilization for N = 50.
        return run_schedulability_campaign(
            50, [50 / 30, 8.0, 50 / 3], sets_per_point=12, seed=2)

    def test_low_utilization_nearly_identical(self, campaign):
        low = campaign[0]
        assert abs(low.m_pd2.mean - low.m_ff.mean) <= 0.5

    def test_mid_range_edf_ff_at_least_as_good(self, campaign):
        mid = campaign[1]
        assert mid.m_ff.mean <= mid.m_pd2.mean

    def test_high_utilization_pd2_competitive(self, campaign):
        """At U = N/3, PD² is within one processor of EDF-FF (the paper
        finds it slightly *better* there)."""
        high = campaign[2]
        assert high.m_pd2.mean <= high.m_ff.mean + 1.0

    def test_loss_decomposition_shapes(self, campaign):
        low, mid, high = campaign
        # EDF overhead loss shrinks as utilization grows.
        assert high.loss_edf.mean < low.loss_edf.mean
        # FF fragmentation grows from ~0.
        assert high.loss_ff.mean >= low.loss_ff.mean
        # Pfair loss is dominated by quantisation and stays in single
        # digits of percent.
        assert 0 < high.loss_pfair.mean < 0.15


class TestEq3Claims:
    def test_convergence_within_five_iterations_typical(self):
        model = OverheadModel()
        gen = TaskSetGenerator(5)
        worst = 0
        for _ in range(20):
            specs = gen.generate(50, 10.0)
            for inf in pd2_inflate_set(specs, model, 8):
                worst = max(worst, inf.iterations)
        assert worst <= 5

    def test_preemption_bound_drives_inflation(self):
        """A task with E = P (no idle quanta in its period) has zero
        preemption charge; a mid-density task has the full min(E-1, P-E)."""
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 0.0,
                          sched_pd2=lambda n, mm: 0.0)
        dense = TaskSpec(10_000, 10_000, cache_delay=100)
        inf_dense = pd2_inflate_set([dense], m, 1)[0]
        assert inf_dense.inflated_execution == 10_000 + 5  # only first dispatch
        mid = TaskSpec(5_000, 10_000, cache_delay=100)
        inf_mid = pd2_inflate_set([mid], m, 1)[0]
        assert inf_mid.inflated_execution == 5_000 + 5 + 4 * 105


class TestObservedPreemptionsMatchAccounting:
    def test_simulated_preemptions_within_charged_bound(self):
        """The Eq. (3) charge min(E-1, P-E) really is an upper bound on
        what the PD² simulator produces, per job."""
        rng = np.random.default_rng(3)
        for _ in range(4):
            tasks = []
            m = 2
            while len(tasks) < 5:
                p = int(rng.integers(3, 14))
                e = int(rng.integers(1, p + 1))
                cand = tasks + [PeriodicTask(e, p)]
                if weight_sum(t.weight for t in cand) <= m:
                    tasks = cand
                else:
                    break
            if not tasks:
                continue
            res = simulate_pfair(tasks, m, 300, trace=True)
            for t in tasks:
                bound = min(t.execution - 1, t.period - t.execution)
                for job, count in res.stats.stats_for(t).job_preemptions.items():
                    assert count <= bound


class TestWorstCaseUtilizationClaim:
    def test_m_plus_one_over_two(self):
        """M+1 tasks of utilization (1+eps)/2 need M+1 processors under any
        heuristic, while PD² handles them on M."""
        from repro.partition.bounds import pathological_specs

        for m in (2, 4):
            specs = pathological_specs(m)
            assert first_fit(specs).processors == m + 1
            total = float(total_utilization(specs))
            assert total == pytest.approx((m + 1) * 0.505)
            quanta = [s.scaled_quanta(1000) for s in specs]
            tasks = [PeriodicTask(e, p) for e, p in quanta]
            assert weight_sum(t.weight for t in tasks) <= m
            res = simulate_pfair(tasks, m, 600)
            assert res.stats.miss_count == 0


class TestFig3EndToEnd:
    def test_single_set_full_pipeline(self):
        """One Fig. 3 data point, every stage checked for coherence."""
        model = OverheadModel()
        specs = TaskSetGenerator(77).generate(50, 10.0)
        point = evaluate_task_set(specs, model)
        assert point.m_pd2 is not None and point.m_ff is not None
        # Inflated utilizations must exceed the raw one.
        assert point.inflated_u_pd2 > point.utilization
        assert point.inflated_u_edf > point.utilization
        # Both approaches need at least ceil(U) processors.
        ideal = math.ceil(point.utilization)
        assert point.m_pd2 >= ideal
        assert point.m_ff >= ideal
        # And not absurdly many.
        assert point.m_pd2 <= 2 * ideal
        assert point.m_ff <= 2 * ideal
