"""Unit tests for the struct-of-arrays vector kernel.

The heavy decision-identity coverage lives in
``test_kernel_differential.py``; this file pins down the kernel's
*edges*: the ``supports`` gates, the dispatcher fallback and its toggle,
constructor validation, and the degenerate horizons the vectorized paths
must not mishandle.  It also holds the hypothesis properties the kernel's
correctness rests on: the per-weight subtask columns reproduce every
real subtask, and the narrow int64 keys order like
:meth:`PD2Priority.key` tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import EPDFPriority, PD2Priority
from repro.core.task import PeriodicTask, SporadicTask
from repro.sim.quantum import QuantumSimulator, simulate_pfair
from repro.sim.vector import (
    MAX_CHUNK_SLOTS,
    MAX_KEY_BITS,
    VectorPD2Simulator,
    _column_base,
    supports,
)
from repro.util.toggles import set_fastpath


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
        # With the memo off, the chunk is the whole horizon; past the
        # slot gate the kernel bows out to the reference.
        tasks = [PeriodicTask(1, 3, task_id=0)]
        big = MAX_CHUNK_SLOTS + 1
        assert not supports(tasks, 1, big, None, {"hyperperiod_memo": False})
        # The memo caps the chunk at one hyperperiod, so the same
        # horizon is fine when chunking applies.
        assert supports(tasks, 1, big, None, {})


def _unsupported_inputs():
    """Inputs that lose the accelerated path, by gate."""
    dup = [PeriodicTask(1, 3, task_id=7), PeriodicTask(1, 4, task_id=7)]
    # Memo off and no tiling: the chunk is the whole horizon.
    long_chunk = ([PeriodicTask(1, 3, task_id=0)], MAX_CHUNK_SLOTS + 1,
                  {"hyperperiod_memo": False})
    # A period so large the narrow key's deadline field alone overflows.
    wide = [PeriodicTask(1, 1 << MAX_KEY_BITS, task_id=0)]
    return [
        ("duplicate ids", dup, 20, {}),
        ("chunk slots", *long_chunk),
        ("key bits", wide, 20, {}),
    ]


class TestDispatch:
    def test_explicit_vector_unsupported_raises(self):
        with pytest.raises(ValueError, match="fastpath=True"):
            simulate_pfair(_tasks(), 2, 50, EPDFPriority(), fastpath=True)

    @pytest.mark.parametrize("label,tasks,horizon,kwargs",
                             _unsupported_inputs())
    def test_fastpath_true_raises_on_every_unsupported_gate(
            self, label, tasks, horizon, kwargs):
        assert not supports(tasks, 1, horizon, None, kwargs), label
        with pytest.raises(ValueError, match="fastpath=True"):
            simulate_pfair(tasks, 1, horizon, fastpath=True, **kwargs)

    @pytest.mark.parametrize("label,tasks,horizon,kwargs",
                             _unsupported_inputs())
    def test_unsupported_inputs_fall_back_to_the_reference(
            self, label, tasks, horizon, kwargs, monkeypatch):
        # Every gate loses the vector tier but keeps the answers: auto
        # dispatch lands on the reference.  The slot gate is lowered so
        # the over-long chunk runs in milliseconds.
        import repro.sim.vector as vec_mod

        if label == "chunk slots":
            monkeypatch.setattr(vec_mod, "MAX_CHUNK_SLOTS", 40)
            horizon = 41
        assert not vec_mod.supports(tasks, 1, horizon, None, kwargs), label
        res = simulate_pfair(tasks, 1, horizon, **kwargs)
        ref = QuantumSimulator(tasks, 1).run(horizon)
        assert res.stats == ref.stats, label

    def test_unsupported_configuration_falls_back(self):
        # EDF is outside the accelerated kernel: auto dispatch must
        # quietly land on the reference.
        res = simulate_pfair(_tasks(), 2, 50, EPDFPriority())
        assert res.policy_name == "EPDF"

    def test_no_fastpath_toggle_disables_vector_too(self, monkeypatch):
        # --no-fastpath means reference-only: the vector tier must not
        # even be consulted when the fast path toggle is off.
        import repro.sim.vector as vec_mod

        calls = []
        real = vec_mod.supports
        monkeypatch.setattr(
            vec_mod, "supports",
            lambda *a: (calls.append(a), real(*a))[1])
        set_fastpath(False)
        res = simulate_pfair(_tasks(), 2, 50)
        assert not calls
        ref = QuantumSimulator(_tasks(), 2).run(50)
        assert res.stats == ref.stats

    def test_env_toggle(self, monkeypatch):
        from repro.util.toggles import fastpath_enabled

        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        assert not fastpath_enabled()
        monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
        assert fastpath_enabled()
        set_fastpath(False)  # an explicit override beats the environment
        assert not fastpath_enabled()


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


class TestAgainstRealSubtasks:
    """The columns the vector kernel reads reproduce every real
    PeriodicTask subtask, and its narrow keys order like PD2Priority."""

    @given(real_systems)
    @settings(max_examples=100, deadline=None)
    def test_table_matches_subtasks(self, weighted_phases):
        for t in _build(weighted_phases, range(len(weighted_phases))):
            rel, dl, bbar, gdd = _column_base(t.execution, t.period)
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
