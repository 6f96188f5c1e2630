"""Machine-speed calibration for timings taken on a noisy shared host.

On small shared machines the speed of a core drifts by up to about 1.7x
over a few seconds: other tenants contend for the host core and for its
caches and memory.  The drift is visible in CPU time too, not only in
wall time, so a run that falls into a slow phase reads 20-40% slower
although the program did not change.

To cancel the drift, the benchmark times a fixed kernel between
operations — it shares no code with the program — and rescales each
operation's time by ``(REFERENCE_S / kernel time) ** ELASTICITY``,
using the kernel samples taken right before and right after the
operation.  The kernel has two parts, because the program slows with
both kinds of contention: interpreter work on a small dictionary (core
speed) and random reads from an 8 MB array (cache and memory); its time
is the geometric mean of the two.  Normalized times are in *reference
seconds*: how long the operation would have taken had the kernel run
at its reference speed.  A change to the program moves the operation
time and leaves the kernel alone, so it still shows in full, by the
same factor; the raw times are reported next to the normalized ones in
every run record.

The kernel slows more under contention than the program does, so
scaling by the full kernel ratio over-corrects: a run in a slow phase
then reads faster than one in a quiet phase.  :data:`ELASTICITY` and
:data:`SETUP_ELASTICITY` are how strongly operation and set-up times
followed the kernel on the reference host; README.md gives the
measurements.
"""

from __future__ import annotations

import array
import bisect
import functools
import random
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

__all__ = ["REFERENCE_S", "ELASTICITY", "SETUP_ELASTICITY",
           "kernel_seconds", "setup_seconds", "SpeedLog"]

#: The kernel's duration at the reference speed: about its median on
#: the host the baseline in README.md was measured on, so reference
#: seconds read close to that host's typical wall time.
REFERENCE_S = 0.0065
#: How strongly operation times follow the kernel's (see the module doc).
ELASTICITY = 0.9
#: Likewise for set-up: starting an interpreter and importing follow it
#: less than the operations do.
SETUP_ELASTICITY = 0.6


def _interpreter_part() -> None:
    table: dict = {}
    acc = 0
    for i in range(12_000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        acc += (i * i) // 7 if i & 1 else len(str(i))
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


@functools.lru_cache(maxsize=None)
def _memory_data() -> Tuple[array.array, array.array]:
    rng = random.Random(20030422)
    data = array.array("q", range(1 << 20))
    index = array.array("q", (rng.randrange(1 << 20) for _ in range(60_000)))
    return data, index


def _memory_part() -> None:
    data, index = _memory_data()
    acc = 0
    for j in index:
        acc += data[j]


def _best(part: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        part()
        best = min(best, perf_counter() - t0)
    return best


def kernel_seconds(repeats: int = 2) -> float:
    """Geometric mean of the two parts' fastest of ``repeats`` runs."""
    _memory_data()
    return (_best(_interpreter_part, repeats)
            * _best(_memory_part, repeats)) ** 0.5


def setup_seconds(seconds: float, kernel_s: float) -> float:
    """Reference-speed set-up time, given the kernel time around it."""
    return seconds * (REFERENCE_S / kernel_s) ** SETUP_ELASTICITY


class SpeedLog:
    """Kernel samples over time, and the speed factor around any span.

    Call :meth:`sample` before the first operation, whenever
    :meth:`due` says so between operations, and after the last one.
    The host's speed drifts over seconds, so a sample every half second
    tracks it; the samples take about 5% of a run's wall time.
    """

    def __init__(self, interval_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        self.seconds.append(kernel_seconds())
        self.times.append(perf_counter())

    def due(self) -> bool:
        return not self.times or \
            perf_counter() - self.times[-1] >= self.interval_s

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean kernel time of the samples just
        before ``start`` and just after ``end``, to the power
        :data:`ELASTICITY`."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end),
                    len(self.times) - 1)
        local = (self.seconds[before] + self.seconds[after]) / 2
        return (REFERENCE_S / local) ** ELASTICITY

    def normalize(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Reference-speed durations of ``(start, end)`` spans."""
        return [(end - start) * self.factor(start, end)
                for start, end in spans]
