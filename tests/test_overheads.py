"""Tests for the overhead model, Eq. (3) inflation, and the Fig. 2 harness."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.overheads import inflation as inflation_module
from repro.overheads.inflation import (
    pd2_inflate,
    pd2_inflate_set,
    pd2_total_weight,
)
from repro.overheads.measure import measure_edf_overhead, measure_pd2_overhead
from repro.overheads.model import (
    OverheadModel,
    PAPER_PD2_TABLES,
    interp_table,
)
from repro.workload.spec import TaskSpec


class TestInterpTable:
    def test_interpolation(self):
        f = interp_table([0, 10], [0.0, 100.0])
        assert f(5) == 50.0
        assert f(2.5) == 25.0

    def test_flat_extrapolation(self):
        f = interp_table([1, 2], [10.0, 20.0])
        assert f(0) == 10.0
        assert f(99) == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            interp_table([1], [1.0])
        with pytest.raises(ValueError):
            interp_table([2, 1], [1.0, 2.0])


class TestOverheadModel:
    def test_paper_defaults(self):
        m = OverheadModel()
        assert m.context_switch == 5
        assert m.quantum == 1000
        # EDF fixed inflation 2(S + C) with S(50) ~ 1 µs.
        assert 10 <= m.edf_fixed_inflation(50) <= 14

    def test_pd2_cost_grows_with_n_and_m(self):
        m = OverheadModel()
        assert m.pd2_sched_cost(1000, 1) > m.pd2_sched_cost(15, 1)
        assert m.pd2_sched_cost(100, 16) > m.pd2_sched_cost(100, 1)

    def test_pd2_cost_interpolates_m(self):
        m = OverheadModel()
        mid = m.pd2_sched_cost(100, 3)
        assert m.pd2_sched_cost(100, 2) < mid < m.pd2_sched_cost(100, 4)

    def test_m_clamped_to_table(self):
        m = OverheadModel()
        assert m.pd2_sched_cost(100, 32) == m.pd2_sched_cost(100, 16)

    def test_zero_model(self):
        z = OverheadModel.zero()
        assert z.edf_fixed_inflation(500) == 0
        assert z.pd2_sched_cost(500, 8) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OverheadModel(context_switch=-1)
        with pytest.raises(ValueError):
            OverheadModel(quantum=0)


class TestPD2Inflation:
    def test_zero_overheads_pure_quantisation(self):
        """With zero overheads, inflation is exactly ceil-to-quantum."""
        z = OverheadModel.zero()
        s = TaskSpec(1500, 10_000)
        inf = pd2_inflate(s, z, 10, 2)
        assert inf.quanta == 2          # ceil(1500/1000)
        assert inf.period_quanta == 10
        assert inf.weight == Fraction(1, 5)
        assert inf.feasible

    def test_known_value_by_hand(self):
        """Constant-cost model, checked against Eq. (3) by hand.

        C=5, S=10, D=35, q=1000; e=2500, p=10000 (P=10 quanta).
        E0 = 3: e' = 2500 + 3*10 + 5 + min(2,7)*(5+35) = 2615 -> E = 3.
        Fixed point at E = 3 after one extra confirmation pass.
        """
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 10.0,
                          sched_pd2=lambda n, mm: 10.0)
        s = TaskSpec(2500, 10_000, cache_delay=35)
        inf = pd2_inflate(s, m, 50, 4)
        assert inf.inflated_execution == 2615
        assert inf.quanta == 3
        assert inf.weight == Fraction(3, 10)

    def test_growth_across_quantum_boundary(self):
        """Inflation that pushes e' across a quantum boundary raises E and
        therefore the charged costs — the fixed point iterates."""
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 10.0,
                          sched_pd2=lambda n, mm: 200.0)
        s = TaskSpec(2900, 10_000, cache_delay=50)
        inf = pd2_inflate(s, m, 50, 4)
        # E0=3: 2900 + 600 + 5 + 2*55 = 3615 -> E=4;
        # E=4: 2900 + 800 + 5 + 3*55 = 3870 -> E=4 fixed point.
        assert inf.quanta == 4
        assert inf.iterations >= 2

    def test_convergence_within_paper_bound(self):
        """The paper observed convergence within ~5 iterations."""
        m = OverheadModel()
        from repro.workload.generator import TaskSetGenerator

        gen = TaskSetGenerator(3)
        for specs in (gen.generate(50, 10.0), gen.generate(100, 20.0)):
            for inf in pd2_inflate_set(specs, m, 8):
                assert inf.iterations <= 6

    def test_infeasible_when_inflation_exceeds_period(self):
        m = OverheadModel(context_switch=5, quantum=1000,
                          sched_edf=lambda n: 10.0,
                          sched_pd2=lambda n, mm: 10.0)
        s = TaskSpec(50_000, 50_000)  # u = 1: any inflation overflows
        inf = pd2_inflate(s, m, 10, 2)
        assert not inf.feasible

    def test_non_quantum_period_rejected(self):
        with pytest.raises(ValueError):
            pd2_inflate(TaskSpec(10, 1500), OverheadModel(), 5, 1)

    def test_total_weight(self):
        z = OverheadModel.zero()
        specs = [TaskSpec(1000, 2000), TaskSpec(1000, 4000)]
        infs = pd2_inflate_set(specs, z, 2)
        assert pd2_total_weight(infs) == Fraction(3, 4)

    def test_monotone_in_processors(self):
        """More processors -> higher S_PD2 -> no smaller inflated weight."""
        m = OverheadModel()
        s = TaskSpec(10_000, 100_000, cache_delay=50)
        w1 = pd2_inflate(s, m, 100, 1).weight
        w16 = pd2_inflate(s, m, 100, 16).weight
        assert w16 >= w1

    def test_set_inflation_lockstep_with_scalar(self):
        """pd2_inflate_set agrees, field for field (including iteration
        counts), with per-task pd2_inflate over random sets — both run
        the one fixed-point loop with S_PD2(n, M) of the whole set."""
        from repro.workload.generator import TaskSetGenerator

        model = OverheadModel()
        for seed in range(40):
            gen = TaskSetGenerator(seed)
            n = 1 + seed % 30
            specs = gen.generate(n, 0.1 + 0.4 * n)
            for m in (1, max(1, n // 2), n + 1):
                assert pd2_inflate_set(specs, model, m) == [
                    pd2_inflate(s, model, n, m) for s in specs]

    def test_set_inflation_lockstep_zero_model_and_edges(self):
        z = OverheadModel.zero()
        specs = [TaskSpec(1, 1000), TaskSpec(999, 1000),
                 TaskSpec(1000, 1000), TaskSpec(2500, 5000, cache_delay=100)]
        for m in (1, 2, 8):
            assert pd2_inflate_set(specs, z, m) == [
                pd2_inflate(s, z, len(specs), m) for s in specs]
        assert pd2_inflate_set([], z, 4) == []

    def test_long_climb_reaches_the_true_fixed_point(self):
        """A fixed point far from the start is found, not cut short.

        q=1000, P=4000, e=q, D(T)=994, S_PD2(1, 1)=1: every step adds
        one quantum (E -> E+1 while E <= 2000), and E=2001 is the first
        E with f(E) = E.  Any fixed iteration cap below that (64, say)
        stops short and passes sets the PD² test must reject.
        """
        q = 1000
        spec = TaskSpec(q, 4000 * q, cache_delay=994)
        inf = pd2_inflate(spec, OverheadModel(), 1, 1)
        assert inf.quanta == 2001
        assert inf.inflated_execution == 2_000_007
        assert inf.feasible
        assert pd2_inflate_set([spec], OverheadModel(), 1) == [inf]

    def test_work_does_not_grow_with_the_period(self):
        """The same one-quantum-per-step climb over a 4e12-quantum period
        is bisected: a few dozen evaluations, not ~2e12 steps."""
        q = 1000
        spec = TaskSpec(q, 4 * 10**15, cache_delay=994)
        inf = pd2_inflate(spec, OverheadModel(), 1, 1)
        assert inf.quanta == 2 * 10**12 + 1
        assert inf.feasible
        assert inf.iterations < 200

    def test_rarely_preempted_long_job_is_covered(self):
        """The iteration from E0 passes the period, yet a larger share of
        it covers its demand: E of P quanta are preempted at most P - E
        times.  q=1, P=100, e=2, C=0, D(T)=10, S_PD2=0: f(E) =
        2 + 10·min(E-1, 100-E), so the orbit 2 -> 12 -> 112 overshoots,
        while E=92 (8 preemptions, demand 82) is the least E that covers."""
        model = OverheadModel(context_switch=0, quantum=1,
                              sched_pd2=lambda n, m: 0.0)
        inf = pd2_inflate(TaskSpec(2, 100, cache_delay=10), model, 1, 1)
        assert inf.quanta == 92
        assert inf.inflated_execution == 92  # covering, not a fixed point
        assert inf.feasible

class TestMeasurement:
    def test_pd2_sample_positive(self):
        sample = measure_pd2_overhead(20, 2, task_sets=1, slots=200, seed=0)
        assert sample.mean_ns > 0
        assert sample.invocations == 200
        assert sample.algorithm == "PD2"

    def test_edf_sample_positive(self):
        sample = measure_edf_overhead(20, task_sets=1, horizon=500_000, seed=0)
        assert sample.mean_ns > 0
        assert sample.invocations > 0
        assert sample.algorithm == "EDF"

    def test_pd2_cost_grows_with_processors(self):
        """The Fig. 2(b) effect: one sequential scheduler serving more
        processors costs more per slot."""
        lo = measure_pd2_overhead(100, 1, task_sets=2, slots=300, seed=1)
        hi = measure_pd2_overhead(100, 8, task_sets=2, slots=300, seed=1)
        assert hi.mean_ns > lo.mean_ns


def _eq3_map(spec, s_pd2, c, q):
    """Eq. (3) as a map on the quantum count E, written independently."""
    p_quanta = spec.period // q

    def f(e_quanta):
        preemptions = min(e_quanta - 1, p_quanta - e_quanta)
        demand = math.ceil(spec.execution + e_quanta * s_pd2 + c
                           + preemptions * (c + spec.cache_delay))
        return -(-demand // q)
    return f


@st.composite
def eq3_cases(draw):
    q = draw(st.integers(1, 1000))
    p_quanta = draw(st.integers(1, 300))
    spec = TaskSpec(draw(st.integers(1, p_quanta * q)), p_quanta * q,
                    cache_delay=draw(st.integers(0, 5 * q)))
    c = draw(st.integers(0, q))
    # Multiples of 1/64 keep every demand exact, so "least" is exact too.
    # Up to 2q, S_PD2 often exceeds C + D(T), where f is non-decreasing
    # on the falling branch too.
    s_pd2 = draw(st.integers(0, 128 * q)) / 64
    return spec, c, q, s_pd2


def _case(e, p, d, c, q, s_pd2):
    return TaskSpec(e, p, cache_delay=d), c, q, s_pd2


#: Climbs that step one quantum at a time past ``_BISECT_AFTER``
#: iterations and hand the rest to ``_settle``: the answer on the rising
#: and on the falling branch, each once with ``S_PD2`` at most
#: ``C + D(T)`` and once above it.  ``(case, answer, branch)``.
SETTLE_CASES = [
    (_case(2505, 152_000, 534, 317, 1000, 114.578125), 58, "rising"),
    (_case(226, 9_500, 1, 41, 100, 53.15625), 47, "rising"),
    (_case(2, 96, 1, 0, 1, 0.0), 49, "falling"),
    (_case(1, 86, 0, 0, 1, 0.984375), 64, "falling"),
]


#: Climbs that turn back, ``f(X) < X`` at an iterate ``X``, so
#: ``_settle`` continues the orbit from ``known = (X, demand)`` inside
#: ``[lo, X]``.  All have ``q = 1``.  ``(case, answer, ending)``.
CONTINUE_CASES = [
    # 3 -> 8 -> 13 -> 10 turns back; 10 fails, 12 covers, f(11) = 11.
    (_case(3, 13, 0, 1, 1, 0.421875), 11, "fixed point"),
    # 4 -> 9 -> 15 -> 11 turns back; 11 fails, then the orbit cycles
    # 13 -> 12 -> 13: 13 covers and 12 fails, which closes [lo, hi].
    (_case(4, 15, 1, 0, 1, 0.453125), 13, "2-cycle"),
    # 10 -> 21 -> 14 turns back; 14 -> 20 -> 15 -> 19 -> 15 narrows the
    # interval to [16, 19] and the orbit's next iterate, 15, lies below
    # it.  Bisection finds the fixed point 17 the orbit never visits.
    (_case(10, 21, 1, 0, 1, 0.15625), 17, "leaves"),
]


def _with_settle_cases(test):
    for case, _answer, _branch in SETTLE_CASES + CONTINUE_CASES:
        test = example(case)(test)
    return test


class TestEq3FixedPointProperty:
    @given(eq3_cases())
    @_with_settle_cases
    @settings(max_examples=300, deadline=None)
    def test_result_is_the_least_covering_quantum_count(self, case):
        spec, c, q, s_pd2 = case
        model = OverheadModel(context_switch=c, quantum=q,
                              sched_pd2=lambda n, m: s_pd2)
        inf = pd2_inflate(spec, model, 1, 1)
        f = _eq3_map(spec, s_pd2, c, q)
        p_quanta = spec.period // q
        e0 = -(-spec.execution // q)
        covering = [e for e in range(e0, p_quanta + 1) if f(e) <= e]
        if not covering:
            assert not inf.feasible
            return
        # Sound (E quanta cover the demand E induces) and least.
        assert inf.feasible
        assert inf.quanta == covering[0]
        assert f(inf.quanta) <= inf.quanta
        # Where the orbit from E0 reaches a fixed point, it is that one.
        orbit = [e0]
        while orbit[-1] <= p_quanta and f(orbit[-1]) not in orbit:
            orbit.append(f(orbit[-1]))
        if orbit[-1] <= p_quanta and f(orbit[-1]) == orbit[-1]:
            assert inf.quanta == orbit[-1]

    @pytest.mark.parametrize("case, answer, branch", SETTLE_CASES)
    def test_long_climbs_reach_the_bisection(self, monkeypatch, case,
                                             answer, branch):
        """Each ``SETTLE_CASES`` climb calls ``_settle`` once, after
        ``_BISECT_AFTER`` iterations with no covering iterate known, and
        it settles on the stated branch (``E <= (P + 1) / 2`` is
        rising)."""
        spec, c, q, s_pd2 = case
        calls = []
        settle = inflation_module._settle

        def counting(row, s, c, q, lo, iterations, known=None, nxt=None):
            calls.append((iterations, known))
            return settle(row, s, c, q, lo, iterations, known, nxt)

        monkeypatch.setattr(inflation_module, "_settle", counting)
        model = OverheadModel(context_switch=c, quantum=q,
                              sched_pd2=lambda n, m: s_pd2)
        inf = pd2_inflate(spec, model, 1, 1)
        assert calls == [(inflation_module._BISECT_AFTER, None)]
        assert inf.feasible and inf.quanta == answer
        p_quanta = spec.period // q
        assert (answer <= (p_quanta + 1) // 2) == (branch == "rising")

    @pytest.mark.parametrize("case, answer, ending", CONTINUE_CASES)
    def test_turned_back_climbs_continue_in_settle(self, monkeypatch, case,
                                                   answer, ending):
        """Each ``CONTINUE_CASES`` climb calls ``_settle`` once with a
        covering ``known`` iterate, and the continued orbit ends as
        stated: on a fixed point, on a 2-cycle around the answer, or
        outside the interval, where bisection takes over."""
        spec, c, q, s_pd2 = case
        turns = []
        settle = inflation_module._settle

        def counting(row, s, c, q, lo, iterations, known=None, nxt=None):
            if known is not None:
                turns.append(known[0])
            return settle(row, s, c, q, lo, iterations, known, nxt)

        monkeypatch.setattr(inflation_module, "_settle", counting)
        model = OverheadModel(context_switch=c, quantum=q,
                              sched_pd2=lambda n, m: s_pd2)
        inf = pd2_inflate(spec, model, 1, 1)
        assert len(turns) == 1
        assert inf.feasible and inf.quanta == answer
        f = _eq3_map(spec, s_pd2, c, q)
        assert f(turns[0]) < turns[0]
        orbit = [turns[0]]
        for _ in range(8):
            orbit.append(f(orbit[-1]))
        if ending == "fixed point":
            assert f(answer) == answer and answer in orbit
        elif ending == "2-cycle":
            assert f(answer) == answer - 1 and f(answer - 1) == answer
            assert answer in orbit
        else:
            assert f(answer) == answer and answer not in orbit
