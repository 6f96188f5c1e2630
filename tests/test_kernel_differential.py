"""Differential testing: the vector kernel vs. the reference.

:class:`VectorPD2Simulator` claims slot-for-slot identical decisions to
:class:`QuantumSimulator` under PD².  This suite runs hundreds of
randomized periodic task systems — including early-release,
nonzero-phase, and overloaded (miss-recording) systems — and generator
sets of up to 256 tasks through both
and asserts identical ``(slot, processor, task, subtask)`` allocations
and identical :class:`SimStats`, including the canonical (priority-key)
order of end-of-run unscheduled misses — the empirical half of the
kernel's correctness argument (the analytical half is the narrow-key
order property in ``test_sim_vector.py`` and the key-order placement
argument in ``sim/vector.py``).

The vector kernel runs only the default ``on_miss="record"`` and
``preserve_affinity=True``; ``TestReferenceOnlyModes`` checks that
:func:`supports` turns the other two modes away and that
:func:`simulate_pfair` then answers exactly as the reference does.
"""

import random
from math import lcm

import pytest

from repro.core.priority import PD2Priority
from repro.core.task import PeriodicTask
from repro.sim.quantum import DeadlineMissError, QuantumSimulator, simulate_pfair
from repro.sim.vector import VectorPD2Simulator, supports
from repro.workload.generator import TaskSetGenerator

N_RANDOM_SETS = 220


def _random_system(rng, *, overload_ok=False):
    """A random periodic system: (task args, processors, horizon)."""
    n = rng.randint(1, 8)
    weights = []
    for _ in range(n):
        p = rng.randint(2, 14)
        weights.append((rng.randint(1, p), p))
    total = sum(e / p for e, p in weights)
    if overload_ok and rng.random() < 0.5:
        processors = max(1, int(total) - rng.randint(0, 1))  # may overload
    else:
        processors = max(1, -(-int(total * 1000) // 1000))
        while sum(e / p for e, p in weights) > processors:
            processors += 1
    phases = [rng.choice([0, 0, 0, rng.randint(1, 10)]) for _ in weights]
    er = rng.random() < 0.3
    hyper = lcm(*(p for _, p in weights))
    horizon = min(2 * hyper + rng.randint(0, 7), 400)
    return weights, phases, processors, horizon, er


def _build(weights, phases, er):
    return [PeriodicTask(e, p, phase=ph, task_id=i, name=f"T{i}",
                         early_release=False)
            for i, ((e, p), ph) in enumerate(zip(weights, phases))], er


def _snapshot(result):
    """Everything observable about a run, in comparable form."""
    allocs = None
    if result.trace is not None:
        allocs = [(a[0], a[1], a[2].task_id, a[3])
                  for a in result.trace.allocations()]
    stats = result.stats
    per_task = {
        tid: (ts.quanta, ts.preemptions, ts.migrations,
              dict(ts.job_preemptions))
        for tid, ts in stats.per_task.items()
    }
    ran = [(m.task.task_id, m.subtask_index, m.deadline, m.completed_at)
           for m in stats.misses if m.completed_at is not None]
    never_ran = [
        (m.task.task_id, m.subtask_index, m.deadline)
        for m in stats.misses if m.completed_at is None]
    return {
        "allocations": allocs,
        "per_task": per_task,
        "misses_ran": ran,          # order-exact (recorded during the run)
        "misses_never_ran": never_ran,  # order-exact (canonical key order)
        "idle": stats.idle_quanta,
        "busy": stats.busy_quanta,
        "slots": stats.slots,
        "horizon": result.horizon,
        "processors": result.processors,
        "policy": result.policy_name,
    }


def _run_both(weights, phases, processors, horizon, er, *, trace=True,
              **kwargs):
    """Reference and vector snapshots for one system.

    ``trace=False`` lets the vector kernel memoise hyperperiods (tracing
    disables the memo); the reference then runs untraced too.
    """
    ref_tasks, _ = _build(weights, phases, er)
    vec_tasks, _ = _build(weights, phases, er)
    ref = QuantumSimulator(ref_tasks, processors, PD2Priority(),
                           early_release=er, trace=trace, **kwargs
                           ).run(horizon)
    gate = dict(kwargs, trace=trace)
    assert supports(vec_tasks, processors, horizon, PD2Priority(), gate)
    vec = VectorPD2Simulator(vec_tasks, processors, PD2Priority(),
                             early_release=er, trace=trace, **kwargs
                             ).run(horizon)
    return _snapshot(ref), _snapshot(vec)


class TestDifferential:
    def test_many_random_feasible_systems(self):
        rng = random.Random(20030422)  # the paper's conference year+
        saw_er = saw_phase = 0
        for trial in range(N_RANDOM_SETS):
            weights, phases, m, horizon, er = _random_system(rng)
            ref, vec = _run_both(weights, phases, m, horizon, er)
            assert ref == vec, (
                f"trial {trial}: divergence on {weights} phases={phases} "
                f"M={m} H={horizon} er={er}")
            saw_er += er
            saw_phase += any(phases)
        assert saw_er > 0 and saw_phase > 0  # the sample covers both axes

    def test_overloaded_systems_record_same_misses(self):
        rng = random.Random(77)
        seen_misses = 0
        for trial in range(60):
            weights, phases, m, horizon, er = _random_system(
                rng, overload_ok=True)
            ref, vec = _run_both(weights, phases, m, horizon, er)
            assert ref == vec, f"trial {trial}"
            seen_misses += bool(ref["misses_ran"] or ref["misses_never_ran"])
        assert seen_misses > 0  # the sample actually exercised overloads

    def test_memoised_and_unmemoised_agree(self):
        # Untraced runs let the vector kernel tile hyperperiods; the
        # memoised result must still match the slot-by-slot reference.
        rng = random.Random(5)
        for trial in range(25):
            weights, phases, m, horizon, er = _random_system(rng)
            ref, vec = _run_both(weights, phases, m, horizon, er,
                                 trace=False)
            assert ref == vec, f"trial {trial}"

    def test_vector_memoised_and_unmemoised_agree(self):
        # A trace turns the memo off, so the untraced and the traced
        # vector runs of one system are its memoised and unmemoised legs.
        rng = random.Random(6)
        for _ in range(25):
            weights, phases, m, horizon, er = _random_system(rng)
            tasks_a, _ = _build(weights, phases, er)
            tasks_b, _ = _build(weights, phases, er)
            a = _snapshot(VectorPD2Simulator(tasks_a, m, early_release=er)
                          .run(horizon))
            b = _snapshot(VectorPD2Simulator(tasks_b, m, early_release=er,
                                             trace=True).run(horizon))
            assert a.pop("allocations") is None
            assert b.pop("allocations")
            assert a == b

    def test_hyperperiod_cache_replays_across_runs(self):
        # Cycle deltas stored by one run must replay bit-for-bit in a
        # later run of an equivalent system (fresh task objects), and
        # the replay must still match the reference.
        from repro.sim.cache import HYPERPERIOD_CACHE

        weights = [(1, 3), (2, 5), (1, 4)]
        horizon = 3600  # 60 hyperperiods of lcm(3,5,4)=60
        HYPERPERIOD_CACHE.clear()
        try:
            tasks_a, _ = _build(weights, [0, 0, 0], False)
            a = VectorPD2Simulator(tasks_a, 2).run(horizon)
            assert len(HYPERPERIOD_CACHE) > 0
            hits = HYPERPERIOD_CACHE.hits
            tasks_b, _ = _build(weights, [0, 0, 0], False)
            b = VectorPD2Simulator(tasks_b, 2).run(horizon)
            assert HYPERPERIOD_CACHE.hits > hits
            ref = QuantumSimulator(_build(weights, [0, 0, 0], False)[0],
                                   2).run(horizon)
            assert _snapshot(a) == _snapshot(b) == _snapshot(ref)
        finally:
            HYPERPERIOD_CACHE.clear()

    def test_long_horizon_with_memoisation(self):
        # Many hyperperiods: the memoised tiling must match the reference
        # exactly, including idle accounting.  Phased systems keep the
        # memo off, so the synchronous variant exercises the tiling.
        weights = [(1, 3), (2, 5), (1, 4)]
        horizon = 6000  # 100 hyperperiods of lcm(3,5,4)=60
        for phases in ([0, 1, 0], [0, 0, 0]):
            ref, vec = _run_both(weights, phases, 2, horizon, False,
                                 trace=False)
            assert ref == vec, f"phases={phases}"

    def test_dispatch_equivalence(self):
        # simulate_pfair(fastpath=...) is the public face of both
        # simulators; spot-check the dispatcher end to end.
        mk = lambda: [PeriodicTask(e, p, task_id=i)
                      for i, (e, p) in enumerate([(1, 2), (3, 7), (2, 5)])]
        assert supports(mk(), 2, 140, None, {"trace": True})
        ref = simulate_pfair(mk(), 2, 140, trace=True, fastpath=False)
        vec = simulate_pfair(mk(), 2, 140, trace=True)
        assert _snapshot(ref) == _snapshot(vec)

    def test_on_miss_raise_matches(self):
        # The reference alone raises; dispatch lands there and raises
        # the same miss.
        mk = lambda: [PeriodicTask(1, 2, task_id=0),
                      PeriodicTask(1, 2, task_id=1),
                      PeriodicTask(1, 2, task_id=2)]  # weight 1.5 on M=1
        with pytest.raises(DeadlineMissError) as ref_err:
            QuantumSimulator(mk(), 1, on_miss="raise").run(40)
        with pytest.raises(DeadlineMissError) as got_err:
            simulate_pfair(mk(), 1, 40, on_miss="raise")
        rm, gm = ref_err.value.miss, got_err.value.miss
        assert (rm.task.task_id, rm.subtask_index, rm.deadline,
                rm.completed_at) == \
               (gm.task.task_id, gm.subtask_index, gm.deadline,
                gm.completed_at)

    def test_finalize_miss_order_is_canonical(self):
        # End-of-run unscheduled misses come out in priority-key order
        # from both simulators (the canonical finalize order).
        mk = lambda: [PeriodicTask(1, 2, task_id=i) for i in range(4)]
        snaps = [
            _snapshot(QuantumSimulator(mk(), 1, trace=True).run(9)),
            _snapshot(VectorPD2Simulator(mk(), 1, trace=True).run(9)),
        ]
        never = snaps[0]["misses_never_ran"]
        assert never  # weight 2.0 on one processor leaves a backlog
        pol = PD2Priority()
        tasks = mk()
        by_task = {t.task_id: t for t in tasks}
        keys = [pol.key(by_task[tid].subtask(idx))
                for tid, idx, _ in never]
        assert keys == sorted(keys)
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_generator_sets(self, n):
        # Far larger than the random systems above: N tasks at
        # U = 0.85·M on M=4, 2,000 slots.
        specs = TaskSetGenerator(1, quantum=1, min_period=50,
                                 max_period=5000).generate(n, 0.85 * 4)

        def tasks():
            return [PeriodicTask(s.execution, s.period, task_id=i)
                    for i, s in enumerate(specs)]

        assert supports(tasks(), 4, 2000, None, {"trace": True})
        ref = QuantumSimulator(tasks(), 4, trace=True).run(2000)
        vec = VectorPD2Simulator(tasks(), 4, trace=True).run(2000)
        assert _snapshot(ref) == _snapshot(vec), f"divergence at N={n}"


class TestReferenceOnlyModes:
    """``preserve_affinity=False`` and ``on_miss="raise"`` run on the
    reference alone: :func:`supports` turns them away, and dispatch
    gives exactly the reference's result, or the reference's
    :class:`DeadlineMissError` with the same miss."""

    MODES = [pytest.param({"preserve_affinity": False}, id="no-affinity"),
             pytest.param({"on_miss": "raise"}, id="raise"),
             pytest.param({"preserve_affinity": False, "on_miss": "raise"},
                          id="no-affinity-raise")]

    @pytest.mark.parametrize("mode", MODES)
    def test_supports_turns_the_mode_away(self, mode):
        tasks = _build([(1, 3), (2, 5)], [0, 0], False)[0]
        assert supports(tasks, 2, 60, None, {})
        assert not supports(tasks, 2, 60, None, mode)
        assert not supports(tasks, 2, 60, None, dict(mode, trace=True))

    @pytest.mark.parametrize("mode", MODES)
    def test_dispatch_answers_like_the_reference(self, mode):
        rng = random.Random(424242)
        raised = 0
        for trial in range(40):
            weights, phases, m, horizon, er = _random_system(
                rng, overload_ok=(trial % 2 == 0))
            kwargs = dict(mode, early_release=er, trace=True)

            def tasks():
                return _build(weights, phases, er)[0]

            ref = _outcome(lambda: QuantumSimulator(
                tasks(), m, PD2Priority(), **kwargs).run(horizon))
            got = _outcome(lambda: simulate_pfair(
                tasks(), m, horizon, PD2Priority(), **kwargs))
            assert ref == got, f"trial {trial}"
            raised += ref[0] == "raised"
        # Overloaded draws really raise in the raise modes.
        assert (raised > 0) == (mode.get("on_miss") == "raise")


def _outcome(run):
    """``("ok", snapshot)`` of a run, or ``("raised", miss)`` if it
    raises :class:`DeadlineMissError`."""
    try:
        return "ok", _snapshot(run())
    except DeadlineMissError as exc:
        miss = exc.miss
        return "raised", (miss.task.task_id, miss.subtask_index,
                          miss.deadline, miss.completed_at)
