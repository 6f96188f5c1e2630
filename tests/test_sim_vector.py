"""Unit tests for the struct-of-arrays vector kernel.

The heavy decision-identity coverage lives in
``test_kernel_differential.py``; this file pins down the kernel's
*edges*: the ``supports`` gates, the dispatcher fallback and its toggle,
constructor validation, the degenerate horizons the vectorized paths
must not mishandle, the narrow-key bit budget under the real
``max_period`` defaults, and the kernel's dtype soundness (integer
columns, signed-integer sort keys).  It also holds the hypothesis
properties the kernel's correctness rests on: the per-weight subtask
columns reproduce every real subtask, and the narrow int64 keys order
like :meth:`PD2Priority.key` tuples.
"""

import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.vector as vec_mod
from repro.core.priority import EPDFPriority, PD2Priority
from repro.core.subtask import WINDOW_TABLE_CACHE_SIZE, window_table
from repro.core.task import PeriodicTask, SporadicTask
from repro.sim.quantum import QuantumSimulator, simulate_pfair
from repro.sim.vector import (
    MAX_CHUNK_SLOTS,
    MAX_KEY_BITS,
    VectorPD2Simulator,
    _key_layout,
    supports,
)
from repro.traces.mapping import MappingConfig
from repro.util.toggles import set_fastpath
from repro.workload.distributions import log_uniform_periods
from repro.workload.generator import TaskSetGenerator, specs_to_pfair_tasks

from strategies import feasible_task_systems
from test_vector_bridge import _assemble, _edge_period


def _tasks():
    return [PeriodicTask(e, p, task_id=i)
            for i, (e, p) in enumerate([(1, 3), (2, 5), (1, 4)])]


@pytest.fixture(autouse=True)
def _reset_toggles():
    yield
    set_fastpath(None)


class TestSupports:
    def test_supported_baseline(self):
        assert supports(_tasks(), 2, 100, PD2Priority(), {})
        assert supports(_tasks(), 2, 100, None, {})

    def test_rejects_non_pd2_policy(self):
        assert not supports(_tasks(), 2, 100, EPDFPriority(), {})

    def test_rejects_arrivals_and_capacity_fn(self):
        assert not supports(_tasks(), 2, 100, None,
                            {"arrivals": [(3, lambda: None)]})
        assert not supports(_tasks(), 2, 100, None,
                            {"capacity_fn": lambda s: 2})

    def test_rejects_duplicate_task_ids(self):
        tasks = [PeriodicTask(1, 3, task_id=7), PeriodicTask(1, 4, task_id=7)]
        assert not supports(tasks, 2, 100, None, {})

    def test_rejects_non_periodic_tasks(self):
        tasks = [SporadicTask(1, 5, task_id=0)]
        assert not supports(tasks, 1, 100, None, {})

    def test_rejects_truncated_tasks(self):
        t = PeriodicTask(1, 3, task_id=0)
        t.last_subtask = 4
        assert not supports([t], 1, 100, None, {})

    def test_trivial_configurations_supported(self):
        assert supports([], 2, 100, None, {})
        assert supports(_tasks(), 2, 0, None, {})

    def test_rejects_oversized_chunks(self):
        # A trace turns the memo off, so the chunk is the whole horizon;
        # past the slot gate the kernel bows out to the reference.
        tasks = [PeriodicTask(1, 3, task_id=0)]
        big = MAX_CHUNK_SLOTS + 1
        assert not supports(tasks, 1, big, None, {"trace": True})
        # The memo caps the chunk at one hyperperiod, so the same
        # horizon is fine when chunking applies.
        assert supports(tasks, 1, big, None, {})


def _unsupported_inputs():
    """Inputs that lose the accelerated path, by gate."""
    dup = [PeriodicTask(1, 3, task_id=7), PeriodicTask(1, 4, task_id=7)]
    # Traced, so no tiling: the chunk is the whole horizon.
    long_chunk = ([PeriodicTask(1, 3, task_id=0)], MAX_CHUNK_SLOTS + 1,
                  {"trace": True})
    # A period so large the narrow key's deadline field alone overflows.
    wide = [PeriodicTask(1, 1 << MAX_KEY_BITS, task_id=0)]
    return [
        ("duplicate ids", dup, 20, {}),
        ("chunk slots", *long_chunk),
        ("key bits", wide, 20, {}),
    ]


class TestDispatch:
    def test_explicit_vector_unsupported_raises(self):
        # A caller that needs the vector kernel builds it, and the kernel
        # refuses the modes only the reference runs.
        with pytest.raises(ValueError, match="vector kernel"):
            VectorPD2Simulator(_tasks(), 2, on_miss="raise")
        with pytest.raises(ValueError, match="vector kernel"):
            VectorPD2Simulator(_tasks(), 2, preserve_affinity=False)

    @pytest.mark.parametrize("label,tasks,horizon,kwargs",
                             _unsupported_inputs())
    def test_unsupported_inputs_fall_back_to_the_reference(
            self, label, tasks, horizon, kwargs, monkeypatch):
        # Every gate loses the vector tier but keeps the answers: auto
        # dispatch lands on the reference.  The slot gate is lowered so
        # the over-long chunk runs in milliseconds.
        if label == "chunk slots":
            monkeypatch.setattr(vec_mod, "MAX_CHUNK_SLOTS", 40)
            horizon = 41
        assert not vec_mod.supports(tasks, 1, horizon, None, kwargs), label
        res = simulate_pfair(tasks, 1, horizon, **kwargs)
        ref = QuantumSimulator(tasks, 1, **kwargs).run(horizon)
        assert res.stats == ref.stats, label

    def test_unsupported_configuration_falls_back(self):
        # EDF is outside the accelerated kernel: auto dispatch must
        # quietly land on the reference.
        res = simulate_pfair(_tasks(), 2, 50, EPDFPriority())
        assert res.policy_name == "EPDF"

    @staticmethod
    def _count_supports(monkeypatch):
        calls = []
        real = vec_mod.supports
        monkeypatch.setattr(
            vec_mod, "supports",
            lambda *a: (calls.append(a), real(*a))[1])
        return calls

    def test_fastpath_false_never_calls_supports(self, monkeypatch):
        # fastpath=False means reference-only: the vector tier is not
        # even consulted.
        calls = self._count_supports(monkeypatch)
        res = simulate_pfair(_tasks(), 2, 50, fastpath=False)
        assert not calls
        ref = QuantumSimulator(_tasks(), 2).run(50)
        assert res.stats == ref.stats

    def test_cache_bypass_leaves_the_kernel_choice_alone(self, monkeypatch):
        # set_fastpath(False) only skips the analysis cache: auto
        # dispatch still asks the vector kernel and takes it.
        ran = []
        real_run = VectorPD2Simulator.run
        monkeypatch.setattr(
            VectorPD2Simulator, "run",
            lambda sim, h: (ran.append(h), real_run(sim, h))[1])
        calls = self._count_supports(monkeypatch)
        set_fastpath(False)
        res = simulate_pfair(_tasks(), 2, 50)
        assert len(calls) == 1 and ran == [50]
        assert res.stats == simulate_pfair(_tasks(), 2, 50,
                                           fastpath=False).stats


class TestConstruction:
    def test_rejects_bad_processors(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 0)

    def test_rejects_bad_on_miss(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 2, on_miss="ignore")

    def test_rejects_arrivals(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 2, arrivals=[(1, lambda: None)])


class TestDegenerateHorizons:
    def test_zero_horizon(self):
        res = VectorPD2Simulator(_tasks(), 2).run(0)
        ref = QuantumSimulator(_tasks(), 2).run(0)
        assert res.stats == ref.stats
        assert res.stats.slots == 0 and not res.stats.misses

    def test_no_tasks(self):
        res = VectorPD2Simulator([], 2).run(25)
        ref = QuantumSimulator([], 2).run(25)
        assert res.stats == ref.stats
        assert res.stats.idle_quanta == 50

    def test_single_slot(self):
        res = VectorPD2Simulator(_tasks(), 2, trace=True).run(1)
        ref = QuantumSimulator(_tasks(), 2, PD2Priority(), trace=True).run(1)
        assert res.stats == ref.stats
        assert [(a[0], a[1], a[2].task_id, a[3])
                for a in res.trace.allocations()] == \
               [(a[0], a[1], a[2].task_id, a[3])
                for a in ref.trace.allocations()]

    def test_rerun_not_supported_twice(self):
        # One simulator instance = one run, like the reference: state is
        # consumed.  A fresh instance reproduces the same result.
        a = VectorPD2Simulator(_tasks(), 2).run(60)
        b = VectorPD2Simulator(_tasks(), 2).run(60)
        assert a.stats == b.stats


# ---------------------------------------------------------------------------
# Narrow-key budget under the real max_period defaults


def _max_period_defaults():
    """Every ``max_period`` default a task set is built under, read from
    the live signatures so that raising one is seen here."""
    def arg_default(func):
        return inspect.signature(func).parameters["max_period"].default

    mapping = {f.name: f.default for f in dataclasses.fields(MappingConfig)}
    return {
        "TaskSetGenerator": arg_default(TaskSetGenerator.__init__),
        "log_uniform_periods": arg_default(log_uniform_periods),
        "MappingConfig": mapping["max_period"],
    }


MAX_PERIOD_DEFAULTS = _max_period_defaults()

#: Default campaigns must engage the vector kernel for horizons up to
#: 2**24 slots and task sets of up to 64 tasks.
BUDGET_HORIZON = 2 ** 24
BUDGET_TASKS = 64


class TestKeyBudget:
    """Default task sets fit the narrow key, so ``supports()`` does not
    send them to the reference simulator."""

    def test_pad_sentinel_fits_int64(self):
        # _PAD_KEY is 1 << MAX_KEY_BITS: it must stay a positive int64.
        assert MAX_KEY_BITS <= 62

    # Every term of _key_layout is non-decreasing in the largest period,
    # the largest phase, the horizon and the task count.  The corner
    # (all periods and phases at max_period, the longest horizon, the
    # most tasks) therefore has the widest layout in the whole box, and
    # checking it checks every task set inside.
    @pytest.mark.parametrize("source", list(MAX_PERIOD_DEFAULTS))
    def test_max_period_default_fits(self, source):
        max_period = MAX_PERIOD_DEFAULTS[source]
        tasks = [PeriodicTask(1, max_period, phase=max_period, task_id=i)
                 for i in range(BUDGET_TASKS)]
        bits = _key_layout(tasks, BUDGET_HORIZON)[3]
        assert bits <= MAX_KEY_BITS, (
            f"{source} max_period={max_period}: {bits}-bit key exceeds "
            f"MAX_KEY_BITS={MAX_KEY_BITS}")

    @given(st.sampled_from(list(MAX_PERIOD_DEFAULTS.values())), st.data())
    @settings(max_examples=50, deadline=None)
    def test_task_sets_inside_the_box_fit(self, max_period, data):
        n = data.draw(st.integers(1, BUDGET_TASKS))
        tasks = [PeriodicTask(1, data.draw(st.integers(1, max_period)),
                              phase=data.draw(st.integers(0, max_period)),
                              task_id=i)
                 for i in range(n)]
        horizon = data.draw(st.integers(1, BUDGET_HORIZON))
        assert _key_layout(tasks, horizon)[3] <= MAX_KEY_BITS


# ---------------------------------------------------------------------------
# Subtask columns and narrow keys against real subtasks


#: Up to five tasks with weights e/p (p in [2, 12], so heavy tasks and
#: group-deadline ties are common) and phases 0 or 3.
real_systems = st.lists(
    st.tuples(st.integers(2, 12).flatmap(
        lambda p: st.tuples(st.integers(1, p), st.just(p))),
        st.sampled_from([0, 0, 3])),
    min_size=1, max_size=5)


def _build(weighted_phases, ids):
    return [PeriodicTask(e, p, phase=ph, task_id=tid)
            for ((e, p), ph), tid in zip(weighted_phases, ids)]


def _narrow_key(sim, row, index):
    """Narrow key of subtask ``index`` of ``row`` as a chunk starting at
    slot 0 builds it: the static ``_K0c`` column plus the job shift."""
    q, j = divmod(index - 1, int(sim._e_arr[row]))
    shift = q * int(sim._p_arr[row]) + int(sim._ph_arr[row])
    g = int(sim._barr[row]) + j
    return int(sim._K0c[g]) + (shift + sim._dbias) * sim._KSH


def _run_columns(sim, row):
    """One job's release, deadline, ``1 - b`` and ``D - d`` (``-1`` when
    light) columns of ``row``, as a run concatenated them: the first two
    read directly, the last two decoded from the static key ``_K0c``."""
    lo = int(sim._barr[row])
    hi = lo + int(sim._e_arr[row])
    mask = (1 << sim._gdbits) - 1
    fields = sim._K0c[lo:hi] >> sim._rowbits
    ngd = fields & mask
    bbar = (fields >> sim._gdbits) & 1
    gdd = np.where(ngd == mask, -1, mask - 1 - ngd)
    return sim._rel0c[lo:hi], sim._dl0c[lo:hi], bbar, gdd


class TestAgainstRealSubtasks:
    """The columns the vector kernel reads reproduce every real
    PeriodicTask subtask, and its narrow keys order like PD2Priority."""

    @given(real_systems)
    @settings(max_examples=100, deadline=None)
    def test_table_matches_subtasks(self, weighted_phases):
        tasks = _build(weighted_phases, range(len(weighted_phases)))
        sim = VectorPD2Simulator(tasks, len(tasks))
        sim.run(1)
        for pos, t in enumerate(tasks):
            rel, dl, bbar, gdd = _run_columns(sim, sim._row_of[pos])
            for s in t.subtasks_until(2 * t.period + t.phase):
                q, j = divmod(s.index - 1, t.execution)
                shift = q * t.period + t.phase
                assert int(rel[j]) + shift == s.release
                assert int(dl[j]) + shift == s.deadline
                assert 1 - int(bbar[j]) == s.b_bit
                assert (0 if gdd[j] < 0
                        else s.deadline + int(gdd[j])) == s.group_deadline

    @given(real_systems, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_narrow_keys_order_like_pd2_tuples(self, weighted_phases, rnd):
        # Sparse, shuffled task ids: the row field must rank by task id,
        # not by list position.
        ids = rnd.sample(range(1000), len(weighted_phases))
        tasks = _build(weighted_phases, ids)
        horizon = 2 * max(t.period for t in tasks) + 3
        sim = VectorPD2Simulator(tasks, len(tasks))
        sim.run(horizon)
        policy = PD2Priority()
        entries = []
        for pos, t in enumerate(tasks):
            row = sim._row_of[pos]
            for s in t.subtasks_until(2 * t.period + t.phase):
                key = _narrow_key(sim, row, s.index)
                assert 0 <= key < 1 << MAX_KEY_BITS
                entries.append((key, policy.key(s)))
        keys = [k for k, _ in entries]
        assert len(set(keys)) == len(keys)       # a strict total order
        for ka, ta in entries:
            for kb, tb in entries:
                assert (ka < kb) == (ta < tb)


class TestBoundedTables:
    """Simulating ever new weights keeps a bounded set of window tables."""

    SETS = 40
    TASKS = 32  # 40 * 32 = 1,280 fresh weights, past the cache's bound

    def test_fresh_weights_stay_within_the_bound(self):
        def container_sizes():
            return {k: len(v) for k, v in vars(vec_mod).items()
                    if isinstance(v, (dict, list, set))}

        assert not any(hasattr(v, "cache_info")
                       for v in vars(vec_mod).values())
        sizes = container_sizes()
        built = window_table.cache_info().misses
        for k in range(self.SETS):
            tasks = [PeriodicTask(1 + i % 3, 900_001 + k * self.TASKS + i)
                     for i in range(self.TASKS)]
            assert supports(tasks, 1, 10, None, {})
            result = VectorPD2Simulator(tasks, 1).run(10)
            assert result.stats.busy_quanta == 10
            assert window_table.cache_info().currsize \
                <= WINDOW_TABLE_CACHE_SIZE
        assert window_table.cache_info().misses - built \
            == self.SETS * self.TASKS
        assert container_sizes() == sizes


# ---------------------------------------------------------------------------
# Dtype soundness: int64/bool columns and signed-integer sort keys


class _RecordingNumpy:
    """Stands in for ``numpy`` inside ``repro.sim.vector``: forwards
    every attribute and records the dtype of each key handed to a sort."""

    SORTS = frozenset({"argsort", "lexsort", "searchsorted", "sort"})

    def __init__(self):
        self.sort_keys = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.SORTS:
            return attr

        def recording(*args, **kwargs):
            for arg in args:   # lexsort takes a tuple of keys
                keys = arg if isinstance(arg, (tuple, list)) else (arg,)
                self.sort_keys.extend(
                    (name, np.asarray(key).dtype) for key in keys)
            return attr(*args, **kwargs)

        return recording


def _assert_dtype_sound(tasks, processors, horizon, **kwargs):
    recorder = _RecordingNumpy()
    sim = VectorPD2Simulator(tasks, processors, **kwargs)
    with mock.patch.object(vec_mod, "np", recorder):
        sim.run(horizon)
    columns = {name: value.dtype for name, value in vars(sim).items()
               if isinstance(value, np.ndarray)}
    assert {"_live", "_elig", "_quanta", "_K0c"} <= set(columns)
    wide = {name: str(dtype) for name, dtype in columns.items()
            if dtype not in (np.dtype(np.int64), np.dtype(bool))}
    assert not wide, f"columns outside int64/bool: {wide}"
    assert recorder.sort_keys, "the kernel sorted nothing"
    unsigned = [(func, str(dtype)) for func, dtype in recorder.sort_keys
                if dtype.kind != "i"]
    assert not unsigned, f"sort keys that are not signed integers: {unsigned}"


class TestDtypes:
    """Every column the kernel keeps is int64 or bool, and every key it
    sorts on is a signed integer (the ``_fold_affinity`` radix key is an
    audited int32), on the real kernel: a silent float64, uint64 or
    object promotion would reorder ties above 2**53 or wrap."""

    @given(feasible_task_systems(max_processors=4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_systems(self, system, trace):
        tasks, processors, horizon = system
        # Untraced runs over three hyperperiods take the memo's chunked
        # path; traced runs place the whole horizon in one chunk.
        _assert_dtype_sound(tasks, processors,
                            horizon if trace else 3 * horizon, trace=trace)

    @pytest.mark.parametrize("n, processors", [(16, 4), (64, 4), (256, 4),
                                               (64, 12)])
    def test_generator_sets(self, n, processors):
        # M=12 takes the bitmask affinity fold for machines above M=7.
        specs = TaskSetGenerator(n, quantum=1, min_period=50,
                                 max_period=5000).generate(
            n, 0.85 * processors)
        _assert_dtype_sound(specs_to_pfair_tasks(specs), processors, 2000,
                            trace=True)

    @pytest.mark.parametrize("small, n_edge, horizon",
                             [([(1, 3, 0)], 1, 16),
                              ([(2, 5, 1), (3, 7, 4)], 2, 64)])
    def test_key_budget_edge(self, small, n_edge, horizon):
        tasks = _assemble(small, _edge_period(small, n_edge, horizon),
                          n_edge)
        assert _key_layout(tasks, horizon)[3] >= MAX_KEY_BITS - 2
        _assert_dtype_sound(tasks, len(tasks), horizon, trace=True)
