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
on M in {2, 3, 4, 6, 8, 9, 12, 16}.  A failure here is a finding about
the analysis's charge, not about this test.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import make_feasible_set
from repro.sim.quantum import simulate_pfair

SLOTS = 600
SETS_PER_M = 10


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


@pytest.mark.parametrize("fastpath", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 16])
def test_per_job_resumptions_within_the_charge(m, fastpath):
    rng = np.random.default_rng(1000 + m)
    resumed = 0
    for _ in range(SETS_PER_M):
        tasks = make_feasible_set(rng, 4 * m, m, max_period=30)
        res = simulate_pfair(tasks, m, SLOTS, trace=True, fastpath=fastpath)
        assert res.stats.miss_count == 0
        for t in tasks:
            bound = min(t.execution - 1, t.period - t.execution)
            for job, n in resumptions(res.trace, t).items():
                assert n <= bound, (
                    f"M={m} task {t.execution}/{t.period} job {job}: "
                    f"{n} resumptions > min(E-1, P-E) = {bound}")
                resumed += n
    # The draw really preempts: the bound is tested, not vacuous.
    assert resumed > 0
