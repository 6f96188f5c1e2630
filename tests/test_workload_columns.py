"""Properties of the generator's column builder.

``TaskSetGenerator.columns`` draws a set as integer columns ``(e, p, D)``
and ``generate`` builds its specs from them.  Campaign results depend on
every draw, so the columns must be exactly the sets the generator made
before it had columns: the oracle here is a frozen copy of that loop,
per-task ``TaskSpec`` construction and scalar period rounding included.
The rounding and clip of the periods are vectorised; they must equal the
scalar ``int(round(exp(x) / q)) * q`` clipped to ``[q, top]`` on the same
draws, halves included (both round them to even).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import (UTILIZATION_SAMPLERS,
                                          _quantize_periods,
                                          log_uniform_periods)
from repro.workload.generator import TaskSetGenerator
from repro.workload.spec import TaskColumns, TaskSpec


def scalar_period(x, quantum, top):
    """One period as the scalar loop rounded it."""
    p = int(round(x / quantum)) * quantum
    return max(quantum, min(p, top))


def oracle_sets(seed, sets, n, total, *, quantum=1000, min_period=50_000,
                max_period=5_000_000, utilization_sampler="simplex",
                cache_delay_max=100):
    """``sets`` consecutive sets from one seeded stream, by the generator
    loop as it stood before the column builder (frozen copy)."""
    rng = np.random.default_rng(seed)
    sampler = UTILIZATION_SAMPLERS[utilization_sampler]
    out = []
    for _ in range(sets):
        us = sampler(rng, n, total)
        lo, hi = math.log(min_period), math.log(max_period)
        top = (max_period // quantum) * quantum
        periods = [scalar_period(math.exp(x), quantum, top)
                   for x in rng.uniform(lo, hi, size=n).tolist()]
        delays = rng.integers(0, cache_delay_max + 1, size=n)
        p_arr = np.asarray(periods, dtype=np.int64)
        e_list = np.clip(np.rint(np.asarray(us) * p_arr).astype(np.int64),
                         1, p_arr).tolist()
        out.append([TaskSpec(execution=e, period=p, name=f"T{i}",
                             cache_delay=d)
                    for i, (e, p, d) in enumerate(zip(e_list, periods,
                                                      delays.tolist()))])
    return out


@st.composite
def generator_cases(draw):
    """``(seed, n, total, generator keyword arguments)``: every sampler,
    quanta from 1 tick to 1 ms, period ranges from one value up, and
    maxima off the quantum grid."""
    quantum = draw(st.sampled_from([1, 7, 250, 1000]))
    min_period = quantum * draw(st.integers(1, 5000))
    kwargs = dict(
        quantum=quantum, min_period=min_period,
        max_period=draw(st.integers(min_period, 10_000_000)),
        utilization_sampler=draw(st.sampled_from(sorted(UTILIZATION_SAMPLERS))),
        cache_delay_max=draw(st.integers(0, 200)))
    n = draw(st.integers(1, 60))
    total = draw(st.floats(0.01, 1.0)) * n * 0.95
    return draw(st.integers(0, 2**32 - 1)), n, total, kwargs


class TestColumnBuilder:
    @settings(max_examples=200, deadline=None)
    @given(generator_cases())
    def test_columns_hold_the_invariants(self, case):
        seed, n, total, kwargs = case
        q, cdm = kwargs["quantum"], kwargs["cache_delay_max"]
        top = (kwargs["max_period"] // q) * q
        gen = TaskSetGenerator(seed, **kwargs)
        for _ in range(2):
            cols = gen.columns(n, total)
            assert isinstance(cols, TaskColumns)
            assert [len(c) for c in cols] == [n] * 4
            assert list(cols.name) == [f"T{i}" for i in range(n)]
            for e, p, d in zip(cols.execution, cols.period, cols.cache_delay):
                assert type(e) is type(p) is type(d) is int
                assert 1 <= e <= p
                assert p % q == 0 and q <= p <= top
                assert 0 <= d <= cdm

    @settings(max_examples=200, deadline=None)
    @given(generator_cases())
    def test_specs_equal_the_frozen_loop(self, case):
        seed, n, total, kwargs = case
        want = oracle_sets(seed, 3, n, total, **kwargs)
        by_columns = TaskSetGenerator(seed, **kwargs)
        by_generate = TaskSetGenerator(seed, **kwargs)
        for oracle in want:
            assert by_columns.columns(n, total).specs() == oracle
            assert by_generate.generate(n, total) == oracle
        assert TaskColumns.of(want[0]).specs() == want[0]


class TestPeriodRounding:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200),
           st.sampled_from([1, 3, 1000, 4096]), st.integers(1, 50),
           st.integers(0, 10_000_000))
    def test_draws_round_like_the_scalar_loop(self, seed, n, quantum, k,
                                              extra):
        min_period = quantum * k
        max_period = min_period + extra
        got = log_uniform_periods(np.random.default_rng(seed), n,
                                  quantum=quantum, min_period=min_period,
                                  max_period=max_period)
        rng = np.random.default_rng(seed)
        top = (max_period // quantum) * quantum
        want = [scalar_period(math.exp(x), quantum, top)
                for x in rng.uniform(math.log(min_period),
                                     math.log(max_period), size=n).tolist()]
        assert got == want
        assert all(type(p) is int for p in got)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 3, 1000, 4096]), st.integers(0, 10**6),
           st.integers(-2, 2), st.integers(0, 2 * 10**9))
    def test_halves_round_to_even(self, quantum, k, ulps, top):
        """``x / q`` exactly ``k + 0.5`` (and its float neighbours):
        ``np.rint`` and ``round`` both go to the even side."""
        x = (k + 0.5) * quantum
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
        xs = [x, float(k * quantum), x / 3, x * 1.5]
        got = _quantize_periods(np.array(xs), quantum, top).tolist()
        assert got == [scalar_period(v, quantum, top) for v in xs]

    def test_periods_beyond_int64_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="max_period"):
            log_uniform_periods(rng, 3, max_period=2**63)

    def test_exact_halves(self):
        xs = np.array([500.0, 1500.0, 2500.0, 3500.0, 999_500.0])
        assert _quantize_periods(xs, 1000, 10**9).tolist() == [
            1000, 2000, 2000, 4000, 1_000_000]
        # 0.5 rounds to 0 and clips up to one quantum; top below the
        # quantum still gives one quantum, as max(q, min(p, top)) does.
        assert _quantize_periods(np.array([500.0, 9e6]), 1000, 0).tolist() \
            == [1000, 1000]
