"""Hypothesis property tests for the dynamic-system leave rules.

Cross-checks :func:`repro.core.dynamic.earliest_leave_time` against the
closed-form subtask formulas of :mod:`repro.core.subtask` — the paper's
Sec. 5 conditions stated directly: a light task waits until
``d(T_i) + b(T_i)`` of its last-scheduled subtask, a heavy task until
that subtask's group deadline, and a never-scheduled task (nonnegative
lag) may leave immediately.  System-level properties drive whole
feasible systems through join/run/leave and check the Eq. (2)
invariant at every slot, and check the running committed weight
against an O(n) recomputation after every operation, with every leave
repeated (leaves are idempotent, cancelled joins included) and a leave
or reweight of a dropped join refused.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicPfairSystem, earliest_leave_time
from repro.core.rational import weight_sum
from repro.core.subtask import b_bit, group_deadline, pseudo_deadline
from repro.core.task import PeriodicTask

from strategies import feasible_task_systems, weights

# A subtask index within the first period (the window pattern repeats
# with period e, so the first period covers every distinct shape).
_indices = st.integers(1, 12)
_nows = st.integers(0, 200)


@given(weights, _nows)
@settings(max_examples=50)
def test_never_scheduled_leaves_immediately(ep, now):
    e, p = ep
    task = PeriodicTask(e, p)
    assert earliest_leave_time(task, 0, now) == now


@given(weights, _indices, _nows)
@settings(max_examples=100)
def test_light_tasks_wait_until_deadline_plus_b(ep, index, now):
    e, p = ep
    task = PeriodicTask(e, p)
    if not task.weight.is_light():
        return
    index = min(index, e)  # stay within the first period's pattern
    expected = max(now, pseudo_deadline(e, p, index) + b_bit(e, p, index))
    assert earliest_leave_time(task, index, now) == expected


@given(weights, _indices, _nows)
@settings(max_examples=100)
def test_heavy_tasks_wait_until_group_deadline(ep, index, now):
    e, p = ep
    task = PeriodicTask(e, p)
    if not task.weight.is_heavy():
        return
    index = min(index, e)
    expected = max(now, group_deadline(e, p, index))
    assert earliest_leave_time(task, index, now) == expected


@given(weights, _indices)
@settings(max_examples=100)
def test_leave_never_precedes_last_subtask_deadline(ep, index):
    """Departing capacity is held at least until the last-scheduled
    subtask's pseudo-deadline — the slack the proofs charge against."""
    e, p = ep
    task = PeriodicTask(e, p)
    index = min(index, e)
    assert earliest_leave_time(task, index, 0) >= pseudo_deadline(e, p, index)


@given(feasible_task_systems(), st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_leave_keeps_eq2_invariant(system, run_for):
    """Join a feasible set, run, ask everyone to leave, run to the end:
    committed weight never exceeds M and nothing misses a deadline."""
    tasks, processors, horizon = system
    dyn = DynamicPfairSystem(processors)
    for t in tasks:
        dyn.join(t)
    dyn.advance(min(run_for, horizon))
    departures = [dyn.request_leave(t) for t in tasks]
    for d in departures:
        assert d >= dyn.now or d == dyn.now  # never in the past
    while dyn.now < max(departures + [horizon]):
        committed = dyn.committed_weight()
        assert committed <= processors
        dyn.advance(1)
    assert dyn.committed_weight() == weight_sum([])
    assert dyn.sim.stats.miss_count == 0


def _recomputed_committed(dyn):
    """Eq. (2)'s left side the O(n) way: every admitted task whose
    departure has not taken effect."""
    return weight_sum(
        w for tid, w in dyn._weights.items()
        if dyn.departure_time(tid) is None or dyn.departure_time(tid) > dyn.now)


_ops = st.one_of(
    st.tuples(st.just("join"), weights),
    # Joins and leaves at once: never ran, so it departs at ``now``.
    st.tuples(st.just("join-leave"), weights),
    st.tuples(st.just("leave"), st.integers(0, 30)),
    st.tuples(st.just("reweight"), st.integers(0, 30), weights),
    st.tuples(st.just("advance"), st.integers(1, 8)),
)


def _never_joined(dyn, task):
    """A queued reweight join that ``advance`` dropped: neither in the
    system, nor queued, nor departed."""
    return (dyn.find_task(task.task_id) is None
            and dyn.departure_time(task.task_id) is None)


@given(st.integers(1, 3), st.lists(_ops, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
# A second leave of a cancelled pending join.
@example(1, [("join", (1, 2)), ("reweight", 0, (1, 2)), ("leave", 1),
             ("leave", 1)])
# A leave, then a reweight, of a reweight join that found no capacity.
@example(1, [("join", (1, 2)), ("advance", 3), ("reweight", 0, (2, 2)),
             ("join", (1, 2)), ("advance", 8), ("leave", 1),
             ("reweight", 1, (1, 2))])
def test_running_committed_weight_matches_recomputation(processors, ops):
    """The running Eq. (2) total equals the sum over admitted tasks whose
    departure is still ahead, after every join, leave (of a running, a
    never-run or a pending-join task), reweight and advance."""
    dyn = DynamicPfairSystem(processors)

    def check():
        committed = dyn.committed_weight()
        assert committed == _recomputed_committed(dyn)
        assert committed <= processors

    known = []  # every task joined or queued, in order
    for op in ops:
        kind = op[0]
        if kind in ("join", "join-leave"):
            e, p = op[1]
            task = PeriodicTask(e, p, phase=dyn.now)
            if dyn.try_join(task):
                known.append(task)
                if kind == "join-leave":
                    check()
                    assert dyn.request_leave(task) == dyn.now
        elif kind == "leave" and known:
            task = known[op[1] % len(known)]
            if _never_joined(dyn, task):
                with pytest.raises(KeyError):
                    dyn.request_leave(task)
            else:
                departure = dyn.request_leave(task)
                assert dyn.request_leave(task) == departure
        elif kind == "reweight" and known:
            task = known[op[1] % len(known)]
            e, p = op[2]
            if _never_joined(dyn, task):
                with pytest.raises(KeyError):
                    dyn.reweight(task, e, p)
            elif dyn.departure_time(task.task_id) is None:
                known.append(dyn.reweight(task, e, p)[1])
        elif kind == "advance":
            for _ in range(op[1]):
                # A queued join that finds no capacity is dropped and
                # reported; the slot elapses either way.
                now = dyn.now
                assert isinstance(dyn.advance(1), list)
                assert dyn.now == now + 1
                check()
        check()
    assert dyn.sim.stats.miss_count == 0
