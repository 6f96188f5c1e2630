"""The PD² schedule against the preemption charge Eq. (3) prices.

Eq. (3) charges each job of a task with weight ``E/P`` (in quanta) for
at most ``min(E-1, P-E)`` resumptions: a job has ``E-1`` boundaries
between its quanta, and at most ``P-E`` idle slots in its window to put
a gap in.  A resumption costs a context switch and a cache reload
whether it follows a gap (the job was preempted) or an adjacent slot on
another processor (a back-to-back migration).  ``SimStats`` counts only
the first kind, so the count here is taken from the schedule trace: per
job, gaps plus back-to-back migrations must stay within the charge, with
no deadline miss, on the reference kernel and on the vector kernel
(whose M > 7 placement folds affinity differently).

Random feasible sets, weights ``E/P`` with ``P <= 30``, run 600 slots
on M in {2, 3, 4, 6, 8, 9, 12, 16}.  The same audit then runs on the
sets Eq. (3) produces: random :class:`TaskSpec` sets, some with cache
delays large enough that their climb ends in ``_settle``, inflated for
the M that ``pd2_search`` accepts and simulated as ``PeriodicTask(E, P)``
on that M.  A failure here is a finding about the analysis's charge, not
about this test.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import make_feasible_set
from repro.core.quantum import QuantumSimulator
from repro.core.task import PeriodicTask
from repro.overheads import inflation as inflation_module
from repro.overheads.inflation import pd2_inflate_set, pd2_search
from repro.overheads.model import OverheadModel
from repro.sim.vector import VectorPD2Simulator, supports
from repro.workload.spec import TaskColumns, TaskSpec

SLOTS = 600
SETS_PER_M = 10
INFLATED_SETS = 80


def resumptions(trace, task):
    """``{job: gaps + back-to-back migrations}`` for ``task``, from the
    trace (subtask ``i``, 1-based, belongs to job ``(i-1) // E``)."""
    count = Counter()
    allocs = trace.of_task(task)
    for a, b in zip(allocs, allocs[1:]):
        job = (b.subtask_index - 1) // task.execution
        if (a.subtask_index - 1) // task.execution != job:
            continue
        if b.slot > a.slot + 1 or b.processor != a.processor:
            count[job] += 1
    return count


def simulate(tasks, m, vector):
    """Run ``tasks`` on ``m`` processors with the trace on, on the
    vector kernel (which :func:`supports` must accept) or the reference."""
    if vector:
        assert supports(tasks, m, SLOTS, None, {"trace": True})
        return VectorPD2Simulator(tasks, m, trace=True).run(SLOTS)
    return QuantumSimulator(tasks, m, trace=True).run(SLOTS)


def audited_resumptions(res, tasks, label):
    """Assert no miss and every job within ``min(E-1, P-E)``; return
    the total resumptions seen."""
    assert res.stats.miss_count == 0, label
    resumed = 0
    for t in tasks:
        bound = min(t.execution - 1, t.period - t.execution)
        for job, n in resumptions(res.trace, t).items():
            assert n <= bound, (
                f"{label} task {t.execution}/{t.period} job {job}: "
                f"{n} resumptions > min(E-1, P-E) = {bound}")
            resumed += n
    return resumed


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 16])
def test_per_job_resumptions_within_the_charge(m, vector):
    rng = np.random.default_rng(1000 + m)
    resumed = 0
    for _ in range(SETS_PER_M):
        tasks = make_feasible_set(rng, 4 * m, m, max_period=30)
        resumed += audited_resumptions(simulate(tasks, m, vector), tasks,
                                       f"M={m}")
    # The draw really preempts: the bound is tested, not vacuous.
    assert resumed > 0


def inflated_draw(rng):
    """A random spec set and overhead model: 2-12 tasks, periods of 2-30
    quanta, quantum 100 or 1000 ticks, and per task a cache delay of up
    to three quanta (half the tasks) or a tenth of one."""
    q = int(rng.choice([100, 1000]))
    specs = []
    for i in range(int(rng.integers(2, 13))):
        p = int(rng.integers(2, 31)) * q
        e = max(1, int(rng.integers(1, p + 1)) // int(rng.choice([1, 2, 4])))
        d = int(rng.integers(0, (3 * q if rng.random() < 0.5 else q // 10)
                             + 1))
        specs.append(TaskSpec(e, p, cache_delay=d, name=f"t{i}"))
    model = OverheadModel(context_switch=int(rng.integers(0, q // 10 + 1)),
                          quantum=q)
    return specs, model


@pytest.mark.parametrize("vector", [False, True])
def test_inflated_sets_within_the_charge(monkeypatch, vector):
    """Eq. (3)'s quanta, scheduled: every accepted set runs on its M
    with no miss and every job within the charge its quanta were priced
    for.  Some climbs in the draw end in ``_settle``."""
    settled = []
    settle = inflation_module._settle

    def counting(*args, **kwargs):
        settled.append(args)
        return settle(*args, **kwargs)

    monkeypatch.setattr(inflation_module, "_settle", counting)
    rng = np.random.default_rng(31)
    resumed = simulated = 0
    settled_simulated = 0
    for k in range(INFLATED_SETS):
        specs, model = inflated_draw(rng)
        found = pd2_search(TaskColumns.of(specs), model, 1, 16)
        if found is None:
            continue
        m = found[0]
        del settled[:]
        inflations = pd2_inflate_set(specs, model, m)
        settled_simulated += len(settled)
        tasks = [PeriodicTask(inf.quanta, inf.period_quanta)
                 for inf in inflations]
        resumed += audited_resumptions(simulate(tasks, m, vector), tasks,
                                       f"set {k} M={m}")
        simulated += 1
    # The draw is not vacuous: most sets are accepted, they preempt,
    # and some of the simulated quanta come out of _settle.
    assert simulated > INFLATED_SETS // 2
    assert resumed > 0
    assert settled_simulated > 0
