"""Tests for subtask parameters: releases, deadlines, b-bits, group deadlines.

The ground truth is the paper's definitions (Sec. 2) and its worked
example, the weight-8/11 task of Fig. 1(a).  The group deadline's closed
form is checked against the definition's cascade walk, kept here as the
oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.subtask import (
    b_bit,
    group_deadline,
    pseudo_deadline,
    pseudo_release,
    window_length,
)

# Strategy: a valid integer weight e/p.
weights = st.integers(1, 40).flatmap(
    lambda p: st.tuples(st.integers(1, p), st.just(p))
)


class TestFig1aValues:
    """Exact values read off the paper's Fig. 1(a) for weight 8/11."""

    E, P = 8, 11

    def test_releases(self):
        expected = [0, 1, 2, 4, 5, 6, 8, 9]
        assert [pseudo_release(self.E, self.P, i) for i in range(1, 9)] == expected

    def test_deadlines(self):
        expected = [2, 3, 5, 6, 7, 9, 10, 11]
        assert [pseudo_deadline(self.E, self.P, i) for i in range(1, 9)] == expected

    def test_b_bits(self):
        # b(T_i) = 1 for i in 1..7, b(T_8) = 0 (paper, Sec. 2).
        assert [b_bit(self.E, self.P, i) for i in range(1, 8)] == [1] * 7
        assert b_bit(self.E, self.P, 8) == 0

    def test_group_deadline_t3_is_8(self):
        assert group_deadline(self.E, self.P, 3) == 8

    def test_group_deadline_t7_is_11(self):
        assert group_deadline(self.E, self.P, 7) == 11

    def test_second_job_shifts_by_period(self):
        for i in range(1, 9):
            assert pseudo_release(self.E, self.P, i + 8) == \
                pseudo_release(self.E, self.P, i) + 11
            assert pseudo_deadline(self.E, self.P, i + 8) == \
                pseudo_deadline(self.E, self.P, i) + 11
            assert b_bit(self.E, self.P, i + 8) == b_bit(self.E, self.P, i)


class TestDefinitions:
    def test_validation(self):
        with pytest.raises(ValueError):
            pseudo_release(0, 5, 1)
        with pytest.raises(ValueError):
            pseudo_release(6, 5, 1)
        with pytest.raises(ValueError):
            pseudo_release(2, 5, 0)

    def test_unit_weight_windows(self):
        # Weight 1: every window is exactly one slot, b-bit always 0.
        for i in range(1, 10):
            assert pseudo_release(3, 3, i) == i - 1
            assert pseudo_deadline(3, 3, i) == i
            assert b_bit(3, 3, i) == 0

    def test_light_group_deadline_zero(self):
        assert group_deadline(1, 3, 1) == 0
        assert group_deadline(2, 5, 4) == 0

    def test_half_weight_group_deadline(self):
        # Weight 1/2: windows [0,2),[2,4),... disjoint, b = 0; group
        # deadline of T_i is its own deadline.
        for i in range(1, 6):
            assert b_bit(1, 2, i) == 0
            assert group_deadline(1, 2, i) == pseudo_deadline(1, 2, i)

    def test_unit_weight_group_deadline(self):
        for i in range(1, 6):
            assert group_deadline(1, 1, i) == i


@given(weights)
def test_prop_first_window_starts_at_zero(ep):
    e, p = ep
    assert pseudo_release(e, p, 1) == 0


@given(weights, st.integers(1, 200))
def test_prop_window_nonempty(ep, i):
    e, p = ep
    assert pseudo_deadline(e, p, i) > pseudo_release(e, p, i)


@given(weights, st.integers(1, 200))
def test_prop_consecutive_windows_overlap_or_disjoint_by_b(ep, i):
    """r(T_{i+1}) = d(T_i) - b(T_i): overlap by one slot iff b = 1."""
    e, p = ep
    assert pseudo_release(e, p, i + 1) == \
        pseudo_deadline(e, p, i) - b_bit(e, p, i)


@given(weights, st.integers(1, 200))
def test_prop_window_length_bounds(ep, i):
    """|w(T_i)| is floor(p/e) or ceil(p/e) + (0 or 1) per the Pfair lemmas:
    each window has length ceil(p/e) or ceil(p/e)+1 when e does not divide
    ... conservatively: length in [floor(p/e), floor(p/e)+2)."""
    e, p = ep
    ln = window_length(e, p, i)
    assert p // e <= ln <= p // e + 2


@given(weights, st.integers(1, 100))
def test_prop_exactly_e_deadlines_per_period(ep, k):
    """Over [0, k*p) there are exactly k*e subtask deadlines."""
    e, p = ep
    count = 0
    i = 1
    while pseudo_deadline(e, p, i) <= k * p:
        count += 1
        i += 1
    assert count == k * e


@given(weights, st.integers(1, 120))
def test_prop_group_deadline_at_or_after_deadline(ep, i):
    e, p = ep
    gd = group_deadline(e, p, i)
    if 2 * e >= p:  # heavy
        assert gd >= pseudo_deadline(e, p, i)
    else:
        assert gd == 0


@given(weights, st.integers(1, 120))
def test_prop_group_deadline_definition(ep, i):
    """The closed form satisfies the paper's defining condition and no
    earlier time does."""
    e, p = ep
    if 2 * e < p:
        return
    gd = group_deadline(e, p, i)
    d_i = pseudo_deadline(e, p, i)

    def is_candidate(t):
        # some T_k with (t = d(T_k) and b = 0) or (t+1 = d(T_k) and |w|=3)
        k = 1
        while pseudo_deadline(e, p, k) <= t + 1:
            d_k = pseudo_deadline(e, p, k)
            if d_k == t and b_bit(e, p, k) == 0:
                return True
            if d_k == t + 1 and window_length(e, p, k) == 3:
                return True
            k += 1
        return False

    assert gd >= d_i
    assert is_candidate(gd)
    for t in range(d_i, gd):
        assert not is_candidate(t)


def walked_group_deadline(e, p, i):
    """``D(T_i)`` by the definition: walk ``k = i, i+1, ...`` to the first
    cascade candidate at or after ``d(T_i)`` — ``d(T_k)`` when ``b(T_k) =
    0``, ``d(T_k) - 1`` when ``|w(T_k)| = 3``.  Candidates are
    nondecreasing in ``k``, so the first hit is the minimum, and the walk
    ends at the latest at the job boundary, where the b-bit is 0."""
    if 2 * e < p:  # light: 0 by convention
        return 0
    d_i = pseudo_deadline(e, p, i)
    k = i
    while True:
        d_k = pseudo_deadline(e, p, k)
        if window_length(e, p, k) == 3 and d_k - 1 >= d_i:
            return d_k - 1
        if b_bit(e, p, k) == 0 and d_k >= d_i:
            return d_k
        k += 1


def subtasks(periods, least_execution):
    """Strategy: ``(e, p, i)`` with ``p`` from ``periods``, ``e`` from
    ``least_execution(p)`` to ``p`` and ``i`` over the first three jobs."""
    def of_period(p):
        return st.integers(least_execution(p), p).flatmap(
            lambda e: st.tuples(st.just(e), st.just(p),
                                st.integers(1, 3 * e)))

    return periods.flatmap(of_period)


class TestClosedFormGroupDeadlines:
    """The closed form gives the walk's group deadlines."""

    def test_every_weight_up_to_period_128(self):
        # Two jobs: the second checks the shift by one period.
        for p in range(1, 129):
            for e in range((p + 1) // 2, p + 1):
                for i in range(1, 2 * e + 1):
                    assert group_deadline(e, p, i) == \
                        walked_group_deadline(e, p, i), (e, p, i)
            for e in range(1, (p + 1) // 2):
                assert group_deadline(e, p, 1) == 0

    @settings(max_examples=60, deadline=None)
    @given(subtasks(st.integers(129, 5000), lambda p: 1))
    def test_large_periods(self, epi):
        assert group_deadline(*epi) == walked_group_deadline(*epi)

    @settings(max_examples=200, deadline=None)
    @given(subtasks(st.integers(2, 10 ** 6), lambda p: (p + 1) // 2))
    def test_heavy_weights(self, epi):
        e, p, i = epi
        assert group_deadline(e, p, i) == walked_group_deadline(e, p, i)
        assert group_deadline(p, p, i) == pseudo_deadline(p, p, i) == i


@settings(max_examples=30)
@given(weights)
def test_prop_table_group_deadlines_periodic(ep):
    """GD(T_{i+e}) = GD(T_i) + p for heavy tasks (the vector kernel's
    job-1 columns rest on it)."""
    e, p = ep
    if 2 * e < p:
        return
    for i in range(1, e + 1):
        g1 = group_deadline(e, p, i)
        g2 = group_deadline(e, p, i + e)
        assert g2 == g1 + p
