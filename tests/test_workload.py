"""Tests for task specs, distributions, and the task-set generator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.distributions import (
    UTILIZATION_SAMPLERS,
    bimodal_utilizations,
    exponential_utilizations,
    log_uniform_periods,
    uniform_simplex_utilizations,
    uniform_utilizations,
)
from repro.workload.generator import (
    TaskSetGenerator,
    generate_task_set,
    specs_to_pfair_tasks,
    specs_to_uni_tasks,
)
from repro.workload.spec import TaskSpec, max_utilization, total_utilization


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(0, 10)
        with pytest.raises(ValueError):
            TaskSpec(1, 0)
        with pytest.raises(ValueError):
            TaskSpec(11, 10)
        with pytest.raises(ValueError):
            TaskSpec(1, 10, cache_delay=-1)

    def test_utilization_exact(self):
        assert TaskSpec(2, 6).utilization == Fraction(1, 3)

    def test_with_execution(self):
        s = TaskSpec(100, 1000, name="x", cache_delay=7)
        s2 = s.with_execution(200)
        assert s2.execution == 200
        assert (s2.name, s2.cache_delay, s2.period) == ("x", 7, 1000)

    def test_scaled_quanta_rounds_up(self):
        s = TaskSpec(1500, 10_000)
        assert s.scaled_quanta(1000) == (2, 10)
        assert TaskSpec(1000, 10_000).scaled_quanta(1000) == (1, 10)

    def test_scaled_quanta_needs_aligned_period(self):
        with pytest.raises(ValueError):
            TaskSpec(10, 1500).scaled_quanta(1000)
        with pytest.raises(ValueError):
            TaskSpec(10, 1000).scaled_quanta(0)

    def test_totals(self):
        specs = [TaskSpec(1, 2), TaskSpec(1, 4)]
        assert total_utilization(specs) == Fraction(3, 4)
        assert max_utilization(specs) == Fraction(1, 2)
        assert max_utilization([]) == 0


class TestDistributions:
    @pytest.mark.parametrize("name", sorted(UTILIZATION_SAMPLERS))
    def test_totals_preserved(self, name):
        rng = np.random.default_rng(0)
        us = UTILIZATION_SAMPLERS[name](rng, 40, 8.0)
        assert sum(us) == pytest.approx(8.0, rel=1e-9)
        assert all(0 < u <= 0.95 for u in us)

    def test_cap_binds_near_full_load(self):
        rng = np.random.default_rng(1)
        us = uniform_simplex_utilizations(rng, 4, 3.7)
        assert sum(us) == pytest.approx(3.7, rel=1e-9)
        assert max(us) <= 0.95 + 1e-12

    def test_unachievable_total_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            uniform_utilizations(rng, 2, 3.0)
        with pytest.raises(ValueError):
            uniform_utilizations(rng, 2, 0.0)
        with pytest.raises(ValueError):  # just above 2 · 0.95
            uniform_simplex_utilizations(rng, 2, 1.9000001)

    def test_bimodal_has_both_modes(self):
        rng = np.random.default_rng(2)
        us = bimodal_utilizations(rng, 200, 30.0, heavy_fraction=0.2)
        assert max(us) > 0.3
        assert min(us) < 0.1

    def test_periods_on_quantum_grid(self):
        rng = np.random.default_rng(3)
        ps = log_uniform_periods(rng, 100, quantum=1000)
        assert all(p % 1000 == 0 for p in ps)
        assert all(50_000 <= p <= 5_000_000 for p in ps)

    def test_period_range_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            log_uniform_periods(rng, 5, quantum=1000, min_period=10)


class TestGenerator:
    def test_reproducible(self):
        a = TaskSetGenerator(42).generate(20, 4.0)
        b = TaskSetGenerator(42).generate(20, 4.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = TaskSetGenerator(1).generate(20, 4.0)
        b = TaskSetGenerator(2).generate(20, 4.0)
        assert a != b

    def test_total_utilization_close_to_target(self):
        specs = generate_task_set(100, 20.0, seed=7)
        assert float(total_utilization(specs)) == pytest.approx(20.0, rel=0.01)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(0, utilization_sampler="nope")

    def test_cache_delays_in_range(self):
        specs = generate_task_set(200, 20.0, seed=1)
        assert all(0 <= s.cache_delay <= 100 for s in specs)
        mean = sum(s.cache_delay for s in specs) / len(specs)
        assert 20 <= mean <= 80  # ~50 for U[0,100]

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(0).generate(0, 1.0)

    def test_periods_aligned_for_quantisation(self):
        specs = generate_task_set(50, 5.0, seed=0)
        for s in specs:
            e, p = s.scaled_quanta(1000)
            assert 1 <= e <= p


class TestConversions:
    def test_specs_to_pfair_quantised(self):
        specs = [TaskSpec(1500, 10_000, name="a")]
        tasks = specs_to_pfair_tasks(specs, quantum=1000)
        assert (tasks[0].execution, tasks[0].period) == (2, 10)
        assert tasks[0].name == "a"

    def test_specs_to_pfair_direct(self):
        specs = [TaskSpec(2, 5, name="a")]
        tasks = specs_to_pfair_tasks(specs)
        assert (tasks[0].execution, tasks[0].period) == (2, 5)

    def test_overfull_quantisation_rejected(self):
        # e quantises above p/q only if e > p, which TaskSpec forbids, so
        # build the edge via a spec at the boundary: e = p keeps e == p.
        specs = [TaskSpec(10_000, 10_000, name="full")]
        tasks = specs_to_pfair_tasks(specs, quantum=1000)
        assert tasks[0].weight.is_unit()

    def test_specs_to_uni(self):
        specs = [TaskSpec(100, 1000, name="a")]
        uni = specs_to_uni_tasks(specs)
        assert uni[0].wcet == 100 and uni[0].period == 1000


@settings(max_examples=25)
@given(st.integers(1, 60), st.floats(0.1, 10.0))
def test_prop_generator_respects_bounds(n, total):
    total = min(total, 0.9 * n)
    specs = TaskSetGenerator(0).generate(n, total)
    assert len(specs) == n
    for s in specs:
        assert 1 <= s.execution <= s.period
        assert s.period % 1000 == 0
