"""Packed PD² key correctness: order-isomorphism with the tuple keys.

The vector kernel's correctness story rests on the packed integer key
inducing exactly the order of :meth:`PD2Priority.key` tuples, over the
per-weight subtask columns it builds its keys from; the hypothesis
properties here are the load-bearing argument (referenced from
``repro/core/keytab.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keytab import (
    MAX_INDEX,
    MAX_TASK_ID,
    _column_base,
    pack_key,
    unpack_key,
)
from repro.core.priority import PD2Priority
from repro.core.task import PeriodicTask


def _tuple_key(deadline, b_bit, group_deadline, task_id, index):
    """The reference order: PD2Priority.key's tuple shape."""
    return (deadline, 1 - b_bit, -group_deadline, task_id, index)


@st.composite
def subtask_params(draw):
    """(deadline, b_bit, group_deadline, task_id, index) as real subtasks
    produce them: the group deadline is 0 (light task) or >= deadline
    (a heavy task's cascade never ends before the current window)."""
    deadline = draw(st.integers(1, 10**9))
    b_bit = draw(st.integers(0, 1))
    heavy = draw(st.booleans())
    group_deadline = (
        deadline + draw(st.integers(0, 10**6)) if heavy else 0)
    task_id = draw(st.integers(0, MAX_TASK_ID))
    index = draw(st.integers(1, MAX_INDEX))
    return deadline, b_bit, group_deadline, task_id, index


class TestPackedOrderProperty:
    @given(subtask_params(), subtask_params())
    @settings(max_examples=500)
    def test_pairwise_order_matches_tuple_order(self, a, b):
        ka, kb = pack_key(*a), pack_key(*b)
        ta, tb = _tuple_key(*a), _tuple_key(*b)
        assert (ka < kb) == (ta < tb)
        assert (ka == kb) == (ta == tb)

    @given(st.lists(subtask_params(), min_size=2, max_size=20))
    @settings(max_examples=200)
    def test_sorting_agrees(self, params):
        by_packed = sorted(params, key=lambda p: pack_key(*p))
        by_tuple = sorted(params, key=lambda p: _tuple_key(*p))
        assert by_packed == by_tuple

    @given(subtask_params())
    def test_unpack_round_trip(self, p):
        deadline, _, _, task_id, index = p
        assert unpack_key(pack_key(*p)) == (deadline, task_id, index)


def _column_key(columns, period, phase, task_id, index):
    """Packed key and release of subtask ``index`` from the job-0 columns,
    shifted the way the vector kernel shifts them (``q`` periods plus the
    phase)."""
    rel, dl, bbar, gdd = columns
    q, j = divmod(index - 1, len(rel))
    shift = q * period + phase
    deadline = int(dl[j]) + shift
    group_deadline = 0 if gdd[j] < 0 else deadline + int(gdd[j])
    key = pack_key(deadline, 1 - int(bbar[j]), group_deadline, task_id,
                   index)
    return key, int(rel[j]) + shift


class TestAgainstRealSubtasks:
    """The subtask columns the vector kernel reads reproduce every real
    PeriodicTask subtask, and their packed keys order like PD2Priority."""

    @given(st.lists(
        st.tuples(st.integers(2, 12).flatmap(
            lambda p: st.tuples(st.integers(1, p), st.just(p))),
            st.sampled_from([0, 0, 3])),
        min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_table_matches_subtasks(self, weighted_phases):
        policy = PD2Priority()
        tasks = [PeriodicTask(e, p, phase=ph, task_id=i)
                 for i, ((e, p), ph) in enumerate(weighted_phases)]
        entries = []
        for t in tasks:
            columns = _column_base(t.execution, t.period)
            horizon = 2 * t.period + t.phase
            for s in t.subtasks_until(horizon):
                key, release = _column_key(columns, t.period, t.phase,
                                           t.task_id, s.index)
                assert key == pack_key(s.deadline, s.b_bit,
                                       s.group_deadline, t.task_id,
                                       s.index)
                assert release == s.release
                entries.append((key, policy.key(s)))
        entries.sort(key=lambda kv: kv[0])
        assert [kv[1] for kv in entries] == sorted(kv[1] for kv in entries)


class TestBoundsAndCapacity:
    def test_task_id_overflow(self):
        with pytest.raises(OverflowError, match="task id"):
            pack_key(1, 0, 0, MAX_TASK_ID + 1, 1)

    def test_index_overflow(self):
        with pytest.raises(OverflowError, match="index"):
            pack_key(1, 0, 0, 0, MAX_INDEX + 1)

    def test_group_deadline_below_deadline_rejected(self):
        # Real heavy subtasks always have D >= d; the packer refuses
        # anything else rather than emit a wrong order.
        with pytest.raises(OverflowError, match="group deadline"):
            pack_key(10, 0, 5, 0, 1)
