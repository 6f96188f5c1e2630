#!/usr/bin/env python3
"""Network-flow scheduling with the intra-sporadic (IS) model.

The paper motivates IS tasks with packets arriving over a network: each
flow is a task whose subtasks are packet-processing quanta.  Congestion
delays packets (IS offsets move windows right); bursts deliver packets
early (eligible before their Pfair release, deadline anchored to the
release so a flow cannot bank credit).  PD² is optimal for IS systems, so
no flow misses as long as total weight fits the processors.

This example simulates three flows on two processors:

* ``steady``  — a well-behaved 1/3 flow;
* ``jittery`` — a 1/2 flow whose packets are delayed by random congestion;
* ``bursty``  — a 1/4 flow whose packets arrive in early clumps.

Run:  python examples/packet_scheduling.py
"""

import numpy as np

from repro import IntraSporadicTask, PeriodicTask
from repro.core.subtask import pseudo_release
from repro.sim import simulate_pfair

HORIZON = 600
RNG = np.random.default_rng(7)


def jittery_flow(execution: int, period: int, horizon: int) -> IntraSporadicTask:
    """Nondecreasing random delays: cumulative congestion jitter."""
    n_subtasks = horizon * execution // period + 1
    offsets, theta = [], 0
    for _ in range(n_subtasks):
        theta += int(RNG.integers(0, 3))  # 0-2 slots of extra delay
        offsets.append(theta)
    return IntraSporadicTask(execution, period, offsets=offsets, name="jittery")


def bursty_flow(execution: int, period: int, horizon: int) -> IntraSporadicTask:
    """Packets arrive in bursts of 4: each burst's packets are all eligible
    when the first of the burst would have been released."""
    n_subtasks = horizon * execution // period + 1
    offsets = [0] * n_subtasks
    eligible = []
    for i in range(1, n_subtasks + 1):
        burst_head = ((i - 1) // 4) * 4 + 1  # index of this burst's first packet
        eligible.append(pseudo_release(execution, period, burst_head))
    return IntraSporadicTask(execution, period, offsets=offsets,
                             eligible_times=eligible, name="bursty")


def main() -> None:
    steady = PeriodicTask(1, 3, name="steady")
    jittery = jittery_flow(1, 2, HORIZON)
    bursty = bursty_flow(1, 4, HORIZON)
    flows = [steady, jittery, bursty]

    result = simulate_pfair(flows, processors=2, horizon=HORIZON, trace=True)

    print(f"{HORIZON} slots on 2 processors; total weight = "
          f"1/3 + 1/2 + 1/4 = 13/12 <= 2\n")
    print(f"{'flow':>8}  {'quanta':>6}  {'misses':>6}")
    for f in flows:
        quanta = result.stats.stats_for(f).quanta
        misses = sum(1 for m in result.stats.misses
                     if m.task.task_id == f.task_id)
        print(f"{f.name:>8}  {quanta:6d}  {misses:6d}")

    assert result.stats.miss_count == 0, "PD² is optimal for IS task systems"
    print("\nNo flow missed a deadline: congestion delays only shift the")
    print("late flow's own windows, and bursts cannot steal future capacity")
    print("(an early packet keeps the deadline of its on-time release).")

    # Show how the jittery flow's windows drifted relative to a periodic one.
    drift = jittery.offsets[min(len(jittery.offsets), 50) - 1]
    print(f"\nBy subtask 50 the jittery flow had accumulated {drift} slots "
          f"of congestion delay;")
    print("its deadlines moved right by exactly that amount — temporal")
    print("isolation for everyone else, per the IS model.")


if __name__ == "__main__":
    main()
