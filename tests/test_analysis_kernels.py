"""Decision identity of the analytic kernels on the Fig. 3/4 hot path.

``_pd2_search`` runs the column ``pd2_search``:
per-task integer rows prepared once, the shared Eq. (3) climb per
candidate M, Eq. (2) screened on a float total and decided exactly near
integers.  Here it must equal a plain search written from the public
``pd2_inflate_set`` and ``pd2_total_weight`` — the same M, the same
inflated total (as a float) and the same largest iteration count — on
generator sets, the zero model, integer totals, infeasible tasks and
rows that leave the climb for bisection.  (The EDF first fit has its
own differential test, ``TestFirstFitScreen`` in
``tests/test_partition.py``.)  Campaign shards evaluate generator
columns directly; their points must equal ``evaluate_task_set`` on the
specs ``generate()`` returns.  Last, ``evaluate_task_set`` must give the
same point whether its analyses come from a cold or warm
``ANALYSIS_CACHE`` or run with the fast path off, and the same point
as the uncached ``evaluate_columns``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import utilization_grid
from repro.analysis.schedulability import (ANALYSIS_CACHE, _pd2_search,
                                           evaluate_columns, evaluate_task_set)
from repro.campaign.sched import evaluate_shard
from repro.campaign.spec import CampaignGrid
from repro.core.rational import exact_sum
from repro.overheads import inflation
from repro.overheads.inflation import pd2_inflate_set, pd2_total_weight
from repro.overheads.model import OverheadModel
from repro.util.toggles import set_fastpath
from repro.workload.generator import TaskSetGenerator
from repro.workload.spec import TaskColumns, TaskSpec, total_utilization

Q = 1000


def reference_search(specs, model, cap):
    """Eq. (2) min-M search from the public functions, one M at a time."""
    m = max(1, math.ceil(total_utilization(specs)))
    while m <= cap:
        inflations = pd2_inflate_set(specs, model, m)
        if not all(inf.feasible for inf in inflations):
            return None, None, 0
        total = pd2_total_weight(inflations)
        if total <= m:
            return m, float(total), max(
                (inf.iterations for inf in inflations), default=0)
        m = max(m + 1, math.ceil(total))
    return None, None, 0


def search(specs, model, cap=None):
    """The column search the cached entry points share, uncached."""
    tasks = TaskColumns.of(specs)
    return _pd2_search(tasks, model, len(specs) if cap is None else cap,
                       exact_sum(tasks.execution, tasks.period))


def assert_same(specs, model, cap=None):
    got = search(specs, model, cap)
    assert got == reference_search(
        specs, model, len(specs) if cap is None else cap)
    return got


@pytest.fixture
def exact_sums(monkeypatch):
    """Count the exact totals the search builds."""
    calls = []

    def counting(nums, dens):
        calls.append(len(dens))
        return exact_sum(nums, dens)

    monkeypatch.setattr(inflation, "exact_sum", counting)
    return calls


class TestPD2SearchMatchesReference:
    @pytest.mark.parametrize("n", [12, 50, 250])
    def test_generator_sets(self, n):
        model = OverheadModel()
        grid = utilization_grid(n, points=10)
        found = 0
        for j, u in enumerate(grid[::3] + grid[-1:]):
            specs = TaskSetGenerator(100 * n + j).generate(n, u)
            found += assert_same(specs, model)[0] is not None
        assert found  # not every set trivially infeasible

    @pytest.mark.parametrize("n", [12, 50])
    def test_zero_model(self, n):
        model = OverheadModel.zero()
        for j, u in enumerate(utilization_grid(n, points=5)):
            assert_same(TaskSetGenerator(7 * n + j).generate(n, u), model)

    def test_integer_total_takes_the_exact_branch(self, exact_sums):
        """Weights 1/2 + 1/4 + 1/4 + 1/2 + 1/2 sum to exactly 2: the
        float total sits on an integer, so M = 1 (from ceil(U)) is
        rejected on the exact total before M = 2 is accepted on it."""
        model = OverheadModel.zero()
        specs = [TaskSpec(1, 2 * Q), TaskSpec(1, 4 * Q), TaskSpec(1, 4 * Q),
                 TaskSpec(1, 2 * Q), TaskSpec(1, 2 * Q)]
        assert search(specs, model) == (2, 2.0, 1)
        assert exact_sums == [5, 5]
        assert_same(specs, model)

    def test_float_screen_builds_one_exact_total(self, exact_sums):
        """Away from integers the candidates are decided on the float
        total; only the accepted M gets an exact total."""
        specs = TaskSetGenerator(3).generate(50, 20.0)
        m, _, _ = search(specs, OverheadModel())
        assert m is not None and m > math.ceil(total_utilization(specs))
        assert exact_sums == [50]
        assert_same(specs, OverheadModel())

    def test_harmonic_sets_with_integer_totals(self):
        """Harmonic sets built from groups of weight exactly 1: under the
        zero model every candidate's total is an integer (the exact
        branch); the paper model inflates the same sets off integers."""
        groups = [[(1, 2), (1, 4), (1, 4)], [(3, 8), (1, 8), (1, 2)],
                  [(1, 16), (7, 16), (1, 4), (1, 4)]]
        for k in range(1, 10):
            specs = [TaskSpec(Q * e, Q * p)
                     for e, p in sum((groups[j % 3] for j in range(k)), [])]
            zero = OverheadModel.zero()
            assert pd2_total_weight(pd2_inflate_set(specs, zero, 1)) == k
            assert assert_same(specs, zero)[0] == k
            assert_same(specs, OverheadModel())

    def test_infeasible_task(self):
        model = OverheadModel()
        specs = TaskSetGenerator(1).generate(12, 3.0) + [TaskSpec(Q, Q)]
        assert assert_same(specs, model) == (None, None, 0)

    def test_cap_below_the_first_candidate(self):
        specs = TaskSetGenerator(2).generate(12, 5.0)
        assert assert_same(specs, OverheadModel(), cap=2) == (None, None, 0)

    def test_settle_rows(self):
        """Rows that leave the climb for bisection: a long climb, an
        orbit that passes the period, and an M-dependent S_PD2 so
        several candidates run."""
        model = OverheadModel(context_switch=0, quantum=1,
                              sched_pd2=lambda n, m: 0.05 * m)
        specs = [TaskSpec(2, 100, cache_delay=10), TaskSpec(3, 50),
                 TaskSpec(5, 200, cache_delay=1), TaskSpec(20, 80)]
        assert assert_same(specs, model)[0] == 2  # M = 1 ran first
        long_climb = [TaskSpec(Q, 4000 * Q, cache_delay=994),
                      TaskSpec(Q, 2 * Q)]
        assert assert_same(long_climb, OverheadModel())[2] > 32

    def test_bad_period_raises_like_inflation(self):
        specs = [TaskSpec(10, 2 * Q), TaskSpec(10, 1500)]
        with pytest.raises(ValueError, match="not a quantum multiple"):
            search(specs, OverheadModel())
        with pytest.raises(ValueError, match="not a quantum multiple"):
            pd2_inflate_set(specs, OverheadModel(), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50).flatmap(lambda q: st.tuples(
        st.just(q),
        st.integers(0, q),
        st.integers(0, 8 * q),
        st.lists(st.integers(1, 40).flatmap(lambda p: st.tuples(
            st.integers(1, p * q), st.just(p * q), st.integers(0, 2 * q))),
            min_size=1, max_size=12))))
    def test_random_models(self, case):
        """Random quanta, switch costs and M-dependent S_PD2 (multiples
        of 1/64, so demands are exact), including the rows' edge cases."""
        q, c, s64, rows = case
        model = OverheadModel(context_switch=c, quantum=q,
                              sched_pd2=lambda n, m: s64 * m / 64)
        specs = [TaskSpec(e, p, cache_delay=d) for e, p, d in rows]
        assert_same(specs, model)


class TestColumnEvaluator:
    @pytest.mark.parametrize("n", [1, 12, 250])
    def test_shard_points_equal_the_spec_path(self, n):
        """``evaluate_shard`` feeds generator columns to the kernels; the
        same draws as ``generate()`` specs, through ``evaluate_columns``
        on their columns and through the cached ``evaluate_task_set``,
        give the same points, from light sets up to 0.9 N."""
        model = OverheadModel()
        grid = CampaignGrid(
            n_tasks=n, sets_per_point=3, seed=n,
            utilizations=tuple(utilization_grid(n, points=4) + [0.9 * n]))
        ANALYSIS_CACHE.clear()
        try:
            for shard in grid.plan():
                got = evaluate_shard((shard, None))
                gen = TaskSetGenerator(shard.seed)
                sets = [gen.generate(n, shard.utilization)
                        for _ in range(shard.sets)]
                assert got == [evaluate_columns(TaskColumns.of(specs), model)
                               for specs in sets]
                assert got == [evaluate_task_set(specs, model)
                               for specs in sets]
        finally:
            ANALYSIS_CACHE.clear()


class TestAnalysisCache:
    @pytest.mark.parametrize("n", [12, 50])
    def test_cache_never_changes_a_point(self, n):
        model = OverheadModel()
        sets = [TaskSetGenerator(10 * n + j).generate(n, u)
                for j, u in enumerate(utilization_grid(n, points=4))]
        ANALYSIS_CACHE.clear()
        try:
            cold = [evaluate_task_set(specs, model) for specs in sets]
            hits = ANALYSIS_CACHE.info()["hits"]
            warm = [evaluate_task_set(specs, model) for specs in sets]
            # One PD² and one EDF-FF hit per set: the warm pass really
            # read its answers from the cache.
            assert ANALYSIS_CACHE.info()["hits"] - hits == 2 * len(sets)
            hits = ANALYSIS_CACHE.info()["hits"]
            uncached = [evaluate_columns(TaskColumns.of(specs), model)
                        for specs in sets]
            set_fastpath(False)
            reference = [evaluate_task_set(specs, model) for specs in sets]
            # ... and neither bypass read it.
            assert ANALYSIS_CACHE.info()["hits"] == hits
        finally:
            set_fastpath(None)
            ANALYSIS_CACHE.clear()
        assert cold == warm == uncached == reference
