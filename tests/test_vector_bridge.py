"""Bridge tests at the R010-proven boundary.

The staticcheck dataflow rule R010 *proves* (statically) that the
packed-key fields cannot overflow for any workload the generator can
emit, and that ``sim.vector``'s narrow-key budget covers every system
``supports()`` admits.  These tests exercise the same boundary
*dynamically*: keytab round-trips at the exact field edges, the
overflow guards the proof leans on actually raise one past the edge,
and the vector kernel still reproduces the reference simulator
decision-for-decision on systems whose ``_key_layout`` sits at (and
just under) the 62-bit ceiling.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keytab import (_MAX_GD_DELTA, GD_BITS, MAX_INDEX,
                               MAX_TASK_ID, pack_key, unpack_key)
from repro.core.priority import PD2Priority
from repro.core.task import PeriodicTask
from repro.sim.quantum import QuantumSimulator
from repro.sim.vector import MAX_KEY_BITS, VectorPD2Simulator, _key_layout
from repro.sim.vector import supports as vector_supports

from test_kernel_differential import _snapshot


# ---------------------------------------------------------------------------
# Keytab round-trips at the exact field edges R010 certifies


@given(deadline=st.integers(0, 1 << 20),
       b_bit=st.integers(0, 1),
       gd_off=st.integers(0, 3),
       tid_off=st.integers(0, 3),
       idx_off=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_roundtrip_at_field_edges(deadline, b_bit, gd_off, tid_off,
                                  idx_off):
    task_id = MAX_TASK_ID - tid_off
    index = MAX_INDEX - idx_off
    group_deadline = deadline + _MAX_GD_DELTA - gd_off
    key = pack_key(deadline, b_bit, group_deadline, task_id, index)
    assert unpack_key(key) == (deadline, task_id, index)


@given(deadline=st.integers(1, 1 << 20), tid=st.integers(0, MAX_TASK_ID),
       idx=st.integers(0, MAX_INDEX))
@settings(max_examples=100, deadline=None)
def test_group_deadline_order_holds_at_the_edge(deadline, tid, idx):
    # Deeper group deadline = higher priority = smaller key; a light
    # task (gd 0) sorts after every heavy one.  Both must hold right at
    # the maximum representable offset.
    at_edge = pack_key(deadline, 1, deadline + _MAX_GD_DELTA, tid, idx)
    near_edge = pack_key(deadline, 1, deadline + _MAX_GD_DELTA - 1,
                         tid, idx)
    light = pack_key(deadline, 1, 0, tid, idx)
    assert at_edge < near_edge < light


def test_guards_raise_one_past_each_proven_edge():
    ok = dict(deadline=5, b_bit=1, group_deadline=0, task_id=0, index=0)
    pack_key(**ok)  # in-range baseline
    for overflow in (
        dict(ok, b_bit=2),
        dict(ok, b_bit=-1),
        dict(ok, group_deadline=5 + _MAX_GD_DELTA + 1),
        dict(ok, task_id=MAX_TASK_ID + 1),
        dict(ok, index=MAX_INDEX + 1),
    ):
        try:
            pack_key(**overflow)
        except OverflowError:
            continue
        raise AssertionError(f"no OverflowError for {overflow}")
    # The delta capacity R010 measures the generator against really is
    # the GD-field capacity minus the reserved light-task sentinel.
    assert _MAX_GD_DELTA == (1 << GD_BITS) - 2


# ---------------------------------------------------------------------------
# Vector kernel identity at the narrow-key bit-budget ceiling


def _layout_bits(small, edge_period, n_edge, horizon):
    tasks = _assemble(small, edge_period, n_edge)
    return _key_layout(tasks, horizon)[3]


def _assemble(small, edge_period, n_edge):
    """Small periodic tasks plus ``n_edge`` huge-period edge tasks."""
    tasks = [PeriodicTask(e, p, phase=ph, task_id=i, name=f"T{i}")
             for i, (e, p, ph) in enumerate(small)]
    for j in range(n_edge):
        tasks.append(PeriodicTask(1, edge_period,
                                  task_id=len(small) + j,
                                  name=f"E{j}"))
    return tasks


def _edge_period(small, n_edge, horizon):
    """Largest edge-task period whose layout still fits MAX_KEY_BITS."""
    lo, hi = max(p for _, p, _ in small) + 1, 1 << 60
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _layout_bits(small, mid, n_edge, horizon) <= MAX_KEY_BITS:
            lo = mid
        else:
            hi = mid - 1
    return lo


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_vector_matches_reference_at_key_budget_edge(data):
    n_small = data.draw(st.integers(1, 3), label="n_small")
    small = []
    for i in range(n_small):
        p = data.draw(st.integers(2, 10), label=f"p{i}")
        e = data.draw(st.integers(1, p), label=f"e{i}")
        ph = data.draw(st.integers(0, 5), label=f"ph{i}")
        small.append((e, p, ph))
    n_edge = data.draw(st.integers(1, 2), label="n_edge")
    horizon = data.draw(st.integers(16, 64), label="horizon")

    period = _edge_period(small, n_edge, horizon)
    bits = _layout_bits(small, period, n_edge, horizon)
    # The searched system sits at the ceiling: it fits, the next period
    # up does not, and supports() agrees on both sides of the line.
    assert bits <= MAX_KEY_BITS
    assert bits >= MAX_KEY_BITS - 2
    assert _layout_bits(small, period + 1, n_edge, horizon) > MAX_KEY_BITS

    tasks = _assemble(small, period, n_edge)
    util = sum(t.execution / t.period for t in tasks)
    processors = max(1, -(-int(util * 1000) // 1000))
    while sum(t.execution / t.period for t in tasks) > processors:
        processors += 1
    policy = PD2Priority()
    assert vector_supports(tasks, processors, horizon, policy, {})
    over = _assemble(small, period + 1, n_edge)
    assert not vector_supports(over, processors, horizon, policy, {})

    reference = QuantumSimulator(tasks, processors, policy=policy,
                                 trace=True).run(horizon)
    vector = VectorPD2Simulator(tasks, processors, policy=policy,
                                trace=True).run(horizon)
    assert _snapshot(vector) == _snapshot(reference)
