"""Bridge tests at the narrow-key budget boundary.

``tests/test_sim_vector.py`` checks that ``sim.vector``'s narrow-key
budget covers every task set the real ``max_period`` defaults allow,
and ``supports()`` sends any wider layout to the reference simulator.
This test exercises the boundary itself: the vector kernel still
reproduces the reference simulator decision-for-decision on systems
whose ``_key_layout`` sits at (and just under) the 62-bit ceiling.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import PD2Priority
from repro.core.task import PeriodicTask
from repro.sim.quantum import QuantumSimulator
from repro.sim.vector import MAX_KEY_BITS, VectorPD2Simulator, _key_layout
from repro.sim.vector import supports as vector_supports

from test_kernel_differential import _snapshot


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
