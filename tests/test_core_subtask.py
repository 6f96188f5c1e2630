"""Tests for subtask parameters: releases, deadlines, b-bits, group deadlines.

The ground truth is the paper's definitions (Sec. 2) and its worked
example, the weight-8/11 task of Fig. 1(a).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.subtask import (
    WindowTable,
    WINDOW_TABLE_CACHE_SIZE,
    b_bit,
    group_deadline,
    pseudo_deadline,
    pseudo_release,
    window_length,
    window_table,
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
    """The returned value satisfies the paper's defining condition and no
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


class TestWindowTable:
    def test_matches_functions(self, fig1_task):
        table = window_table(8, 11)
        for i in range(1, 30):
            assert table.release(i) == pseudo_release(8, 11, i)
            assert table.deadline(i) == pseudo_deadline(8, 11, i)
            assert table.b_bit(i) == b_bit(8, 11, i)
            assert table.group_deadline(i) == group_deadline(8, 11, i)
            assert table.window_length(i) == window_length(8, 11, i)

    def test_params_bundle(self):
        table = window_table(3, 4)
        p = table.params(2)
        assert p.release == pseudo_release(3, 4, 2)
        assert p.deadline == pseudo_deadline(3, 4, 2)
        assert p.window_length == p.deadline - p.release

    def test_cached_instance_shared(self):
        assert window_table(5, 7) is window_table(5, 7)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            window_table(2, 3).release(0)

    def test_cache_is_bounded(self):
        assert window_table.cache_info().maxsize == WINDOW_TABLE_CACHE_SIZE


def _walked(e, p):
    return [group_deadline(e, p, i) for i in range(1, e + 1)]


class TestOnePassGroupDeadlines:
    """The table's one backward sweep gives the walk's group deadlines."""

    def test_every_weight_up_to_period_128(self):
        for p in range(1, 129):
            for e in range(1, p + 1):
                assert WindowTable(e, p).group_deadlines == _walked(e, p), \
                    (e, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(129, 5000).flatmap(
        lambda p: st.tuples(st.integers(1, p), st.just(p))))
    def test_large_periods(self, ep):
        e, p = ep
        assert WindowTable(e, p).group_deadlines == _walked(e, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3000).flatmap(
        lambda p: st.tuples(st.integers((p + 1) // 2, p), st.just(p))))
    def test_heavy_weights(self, ep):
        e, p = ep
        assert WindowTable(e, p).group_deadlines == _walked(e, p)
        assert WindowTable(p, p).group_deadlines == list(range(1, p + 1))


@settings(max_examples=30)
@given(weights)
def test_prop_table_group_deadlines_periodic(ep):
    """GD(T_{i+e}) = GD(T_i) + p for heavy tasks (the memoisation's basis)."""
    e, p = ep
    if 2 * e < p:
        return
    for i in range(1, e + 1):
        g1 = group_deadline(e, p, i)
        g2 = group_deadline(e, p, i + e)
        assert g2 == g1 + p
