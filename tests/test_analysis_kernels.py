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
as the uncached ``evaluate_columns``; the service's ``analyze`` and
``batch_analyze`` must answer from the entries it wrote.  Trace-replay
shards evaluate rescaled payload columns with no cache key: their points
must equal the spec path (``scale_to_utilization`` + ``evaluate_columns``
on every draw), each distinct pick must be analysed once, and a shard
must leave ``ANALYSIS_CACHE`` as it found it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import utilization_grid
from repro.analysis.schedulability import (ANALYSIS_CACHE, _pd2_search,
                                           evaluate_columns, evaluate_task_set)
from repro.campaign.sched import batch_analyze, evaluate_shard
from repro.campaign.spec import CampaignGrid, ShardSpec
from repro.core.rational import exact_sum, float_sum
from repro.overheads import inflation
from repro.overheads.inflation import pd2_inflate_set, pd2_total_weight
from repro.overheads.model import OverheadModel
from repro.service.state import ServiceState
from repro.traces.mapping import scale_to_utilization
from repro.traces import replay
from repro.traces.replay import (TraceGrid, TraceWindowPayload,
                                 build_window_payloads, evaluate_trace_shard)
from repro.traces.swf import parse_swf
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
                       float_sum(tasks.execution, tasks.period))


def assert_same(specs, model, cap=None):
    got = search(specs, model, cap)
    assert got == reference_search(
        specs, model, len(specs) if cap is None else cap)
    return got


def _count_calls(monkeypatch, name, fn):
    """Record the term count of every ``inflation.<name>`` call."""
    calls = []

    def counting(nums, dens):
        calls.append(len(dens))
        return fn(nums, dens)

    monkeypatch.setattr(inflation, name, counting)
    return calls


@pytest.fixture
def exact_sums(monkeypatch):
    """Count the exact totals the search builds."""
    return _count_calls(monkeypatch, "exact_sum", exact_sum)


@pytest.fixture
def float_sums(monkeypatch):
    """Count the float totals the search rounds without an exact one."""
    return _count_calls(monkeypatch, "float_sum", float_sum)


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
        rejected on the exact total before M = 2 is accepted on it.
        The zero model's S_PD2 is the same at both, so M = 2 reuses
        M = 1's climb and its exact total: one is built."""
        model = OverheadModel.zero()
        specs = [TaskSpec(1, 2 * Q), TaskSpec(1, 4 * Q), TaskSpec(1, 4 * Q),
                 TaskSpec(1, 2 * Q), TaskSpec(1, 2 * Q)]
        assert search(specs, model) == (2, 2.0, 1)
        assert exact_sums == [5]
        assert_same(specs, model)

    def test_float_screen_builds_no_exact_total(self, exact_sums,
                                                float_sums):
        """Away from integers the candidates are decided on the float
        total, and the accepted M's total is rounded by ``float_sum``:
        no exact total is built."""
        specs = TaskSetGenerator(3).generate(50, 20.0)
        m, _, _ = search(specs, OverheadModel())
        assert m is not None and m > math.ceil(total_utilization(specs))
        assert exact_sums == []
        assert float_sums == [50]
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


def candidates(specs, model, cap):
    """The candidate M values :func:`reference_search` visits."""
    seen = []
    m = max(1, math.ceil(total_utilization(specs)))
    while m <= cap:
        seen.append(m)
        inflations = pd2_inflate_set(specs, model, m)
        if not all(inf.feasible for inf in inflations):
            break
        total = pd2_total_weight(inflations)
        if total <= m:
            break
        m = max(m + 1, math.ceil(total))
    return seen


def climbed(specs, model, cap=None):
    """``search`` and the S_PD2 of each ``_climb`` it ran; the result
    must equal ``reference_search``."""
    ran = []
    climb = inflation._climb

    def counting_climb(rows, s_pd2, c, q):
        ran.append(s_pd2)
        return climb(rows, s_pd2, c, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inflation, "_climb", counting_climb)
        got = search(specs, model, cap)
    assert got == reference_search(
        specs, model, len(specs) if cap is None else cap)
    return got, ran


def distinct_runs(costs):
    """The first S_PD2 of each run of equal values."""
    return [s for k, s in enumerate(costs) if k == 0 or s != costs[k - 1]]


class TestClimbReuse:
    """``pd2_search`` climbs once per run of equal S_PD2 among the
    candidates it visits: a candidate whose S_PD2 equals the previous
    one's reuses that climb.  A reused climb's total always passes, as
    the jump lands on or above it."""

    def test_flat_paper_range_climbs_once(self):
        """The paper model is flat for M >= 16: N = 250 sets whose first
        candidate is at least 16 visit two candidates and climb once."""
        model = OverheadModel()
        for j, u in enumerate((15.5, 24.0, 40.0, 62.0, 90.0)):
            specs = TaskSetGenerator(250 + j).generate(250, u)
            assert math.ceil(total_utilization(specs)) >= 16
            got, ran = climbed(specs, model)
            assert got[0] is not None
            assert len(candidates(specs, model, 250)) == 2
            assert len(ran) == 1

    @pytest.mark.parametrize("n", [12, 50, 100])
    def test_zero_model_climbs_once(self, n):
        model = OverheadModel.zero()
        for j, u in enumerate(utilization_grid(n, points=5)):
            specs = TaskSetGenerator(11 * n + j).generate(n, u)
            assert len(climbed(specs, model)[1]) == 1

    def test_paper_model_below_16_climbs_per_distinct_cost(self):
        """Below 16 the paper's S_PD2 changes with M, so each candidate
        there climbs; only a candidate with the previous S_PD2 reuses."""
        model = OverheadModel()
        for j, u in enumerate((3.0, 6.0, 10.0, 14.5)):
            specs = TaskSetGenerator(50 + j).generate(50, u)
            costs = [model.pd2_sched_cost(50, m)
                     for m in candidates(specs, model, 50)]
            assert climbed(specs, model)[1] == distinct_runs(costs)

    def test_repeats_across_a_jump_then_rises(self):
        """Six tasks (2, 10) with D = 1 (U = 1.2) inflate to 0.6 each
        when S_PD2 = 0.  With S_PD2 = 0 up to M = 6 the search rejects
        M = 2 (total 3.6), jumps to the non-adjacent M = 4 and reuses
        the climb.  With S_PD2 rising to 1/4 at M = 3, M = 4 climbs
        again (total 4.2) and M = 5 reuses that climb."""
        specs = [TaskSpec(2, 10, cache_delay=1) for _ in range(6)]
        flat = OverheadModel(context_switch=0, quantum=1,
                             sched_pd2=lambda n, m: 0.0 if m < 7 else 1.0)
        assert candidates(specs, flat, 6) == [2, 4]
        assert climbed(specs, flat) == ((4, 3.6, 5), [0.0])
        rising = OverheadModel(context_switch=0, quantum=1,
                               sched_pd2=lambda n, m: 0.0 if m < 3 else 0.25)
        assert candidates(specs, rising, 6) == [2, 4, 5]
        assert climbed(specs, rising) == ((5, 4.2, 5), [0.0, 0.25])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 128), min_size=1, max_size=6),
           st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.lists(st.integers(1, 40).flatmap(lambda p: st.tuples(
               st.integers(1, p * 10), st.just(p * 10),
               st.integers(0, 20))), min_size=1, max_size=12))
    def test_step_curves(self, levels, widths, rows):
        """S_PD2 as a step curve in M (multiples of 1/64 µs, so demands
        are exact; levels rising for an odd count, in any order
        otherwise): the search equals the reference and climbs once per
        run of equal S_PD2 among the candidates the reference visits."""
        levels = sorted(levels) if len(levels) % 2 else levels
        edges = [sum(widths[:k + 1]) for k in range(len(widths))]

        def step(n, m):
            k = sum(m > edge for edge in edges)
            return levels[min(k, len(levels) - 1)] / 64

        model = OverheadModel(context_switch=2, quantum=10, sched_pd2=step)
        specs = [TaskSpec(e, p, cache_delay=d) for e, p, d in rows]
        costs = [step(len(specs), m)
                 for m in candidates(specs, model, len(specs))]
        assert climbed(specs, model)[1] == distinct_runs(costs)


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

    def test_service_and_batch_share_the_keyspace(self):
        """The service's ``analyze`` and a serial ``batch_analyze`` read
        the entries ``evaluate_task_set`` wrote: two hits, no miss, and
        the point's fields."""
        model = OverheadModel()
        specs = TaskSetGenerator(7).generate(20, 5.0)
        ANALYSIS_CACHE.clear()
        try:
            point = evaluate_task_set(specs, model)
            fields = {"m_pd2": point.m_pd2, "m_edf_ff": point.m_ff,
                      "utilization": point.utilization,
                      "n_tasks": point.n_tasks}
            service = ServiceState(2, model=model)
            for answer, want in (
                    (lambda: service.analyze(specs),
                     {**fields, "cached": False}),
                    (lambda: batch_analyze([specs], model=model)[0], fields)):
                before = ANALYSIS_CACHE.info()
                assert answer() == want
                after = ANALYSIS_CACHE.info()
                assert after["hits"] - before["hits"] == 2
                assert after["misses"] == before["misses"]
        finally:
            ANALYSIS_CACHE.clear()


def trace_shards():
    """Every shard of a two-window replay of the committed fixture with
    its payload.  Window 1 has fewer jobs than ``n_tasks``, so each of
    its shards is one set drawn ``sets`` times."""
    log = parse_swf("tests/data/mini.swf", strict=False)
    grid = TraceGrid(trace_name="mini.swf", trace_sha256="0" * 64,
                     window_seconds=3600, window_offsets=(0, 3600),
                     utilizations=(0.5, 1.7, 4.25), n_tasks=12,
                     sets_per_point=6, seed=3, replicas=2)
    payloads, _ = build_window_payloads(log, grid)
    return [(shard, None, payloads[shard.shard_id]) for shard in grid.plan()]


def spec_samples(shard, payload):
    """The shard's picks and its sets built the spec way: a ``TaskSpec``
    per pool row, the same seeded draws, ``scale_to_utilization`` on
    every draw (no table of earlier picks)."""
    pool = [TaskSpec(e, p, name=n, cache_delay=d)
            for n, e, p, d in payload.tasks]
    rng = np.random.default_rng(shard.seed)
    picks, samples = [], []
    for _ in range(shard.sets):
        picked = tuple(range(len(pool)))
        if len(pool) > shard.n_tasks:
            picked = tuple(sorted(rng.choice(len(pool), size=shard.n_tasks,
                                             replace=False).tolist()))
        picks.append(picked)
        samples.append(scale_to_utilization([pool[i] for i in picked],
                                            shard.utilization))
    return picks, samples


def check_shard(shard, payload):
    """Run one shard with its analyses counted and check the contract:
    the spec path's points, one analysis per distinct pick, and no
    ``ANALYSIS_CACHE`` read or write."""
    model = OverheadModel()
    picks, samples = spec_samples(shard, payload)
    analysed = []

    def counted(tasks, model):
        analysed.append(tasks)
        return evaluate_columns(tasks, model)

    before = ANALYSIS_CACHE.info()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "evaluate_columns", counted)
        got = evaluate_trace_shard((shard, None, payload))
    assert ANALYSIS_CACHE.info() == before
    assert got == [evaluate_columns(TaskColumns.of(specs), model)
                   for specs in samples]
    assert len(analysed) == len(set(picks))
    return len(picks) - len(set(picks))


class TestTraceShardCache:
    def test_shard_points_equal_the_spec_path(self):
        """Every fixture shard equals the spec path, analyses each
        distinct pick once and leaves a warm analysis cache as it found
        it; window 1's shards repeat one pick."""
        shards = trace_shards()
        ANALYSIS_CACHE.clear()
        try:
            # A warm entry for every spec-path set: the shard must not
            # read it either.
            for shard, _m, payload in shards:
                for specs in spec_samples(shard, payload)[1]:
                    evaluate_task_set(specs, OverheadModel())
            repeats = [check_shard(shard, payload)
                       for shard, _m, payload in shards]
        finally:
            ANALYSIS_CACHE.clear()
        assert sum(repeats) > 0

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, 30).flatmap(lambda p: st.tuples(
            st.integers(1, p), st.just(p), st.integers(0, 3))),
            min_size=max(1, n - 2), max_size=n + 1),
        st.sampled_from([0.25, 0.5, 1.0, 1.7]),
        st.integers(1, 12),
        st.integers(0, 2 ** 32))))
    @settings(max_examples=60, deadline=None)
    def test_pools_around_n_tasks(self, case):
        """Pools smaller than, equal to and one larger than ``n_tasks``
        (where picks repeat most) hold the same contract."""
        n, rows, fraction, sets, seed = case
        q = 1000
        payload = TraceWindowPayload(
            window_offset=0,
            tasks=tuple((f"t{k}", e * q, p * q, d * q)
                        for k, (e, p, d) in enumerate(rows)))
        shard = ShardSpec(shard_id="p0000r000", point_index=0,
                          replica_index=0, n_tasks=n,
                          utilization=fraction * min(n, len(rows)),
                          sets=sets, seed=seed)
        check_shard(shard, payload)
