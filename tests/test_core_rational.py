"""Unit and property tests for exact Weight arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import rational
from repro.core.rational import Weight, exact_sum, float_sum, weight_sum

pos = st.integers(min_value=1, max_value=10**6)


class TestConstruction:
    def test_reduces_to_lowest_terms(self):
        w = Weight(4, 6)
        assert (w.num, w.den) == (2, 3)

    def test_of_task_bounds(self):
        assert Weight.of_task(1, 1).is_unit()
        with pytest.raises(ValueError):
            Weight.of_task(3, 2)
        with pytest.raises(ValueError):
            Weight.of_task(0, 2)
        with pytest.raises(ValueError):
            Weight.of_task(1, 0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Weight(1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Weight(-1, 2)

    def test_immutable(self):
        w = Weight(1, 2)
        with pytest.raises(AttributeError):
            w.num = 3


class TestPredicates:
    def test_light_heavy_boundary(self):
        assert Weight(1, 3).is_light()
        assert not Weight(1, 2).is_light()  # exactly 1/2 is heavy
        assert Weight(1, 2).is_heavy()
        assert Weight(2, 3).is_heavy()

    def test_unit(self):
        assert Weight(5, 5).is_unit()
        assert not Weight(4, 5).is_unit()


class TestArithmetic:
    def test_add(self):
        assert Weight(1, 5) + Weight(1, 45) == Weight(2, 9)

    def test_sub(self):
        assert Weight(2, 9) - Weight(1, 45) == Weight(1, 5)

    def test_sub_negative_raises(self):
        with pytest.raises(ValueError):
            Weight(1, 45) - Weight(1, 5)

    def test_mul_int(self):
        assert Weight(2, 9) * 3 == Weight(2, 3)
        assert 3 * Weight(2, 9) == Weight(2, 3)

    def test_mul_weight(self):
        assert Weight(1, 2) * Weight(2, 3) == Weight(1, 3)


class TestComparisons:
    def test_ordering(self):
        assert Weight(1, 3) < Weight(1, 2) < Weight(2, 3)
        assert Weight(1, 2) <= Weight(1, 2)
        assert Weight(2, 3) > Weight(1, 2)
        assert Weight(2, 3) >= Weight(2, 3)

    def test_int_comparisons(self):
        assert Weight(1, 2) < 1
        assert Weight(3, 3) <= 1
        assert Weight(3, 3) == 1
        assert not (Weight(3, 2) <= 1)

    def test_hash_consistency(self):
        assert hash(Weight(2, 4)) == hash(Weight(1, 2))
        assert len({Weight(2, 4), Weight(1, 2), Weight(3, 6)}) == 1

    def test_float_and_ceil_floor(self):
        assert float(Weight(1, 2)) == 0.5
        assert Weight(5, 2).ceil() == 3
        assert Weight(5, 2).floor() == 2
        assert Weight(4, 2).ceil() == 2


class TestWeightSum:
    def test_empty(self):
        assert weight_sum([]) == Weight(0, 1)

    def test_fig5_supertask(self):
        # Paper Fig. 5: 1/5 + 1/45 = 2/9.
        assert weight_sum([Weight(1, 5), Weight(1, 45)]) == Weight(2, 9)

    def test_exact_boundary(self):
        # 1/2 + 1/3 + 1/6 == 1 exactly; must not tip over.
        total = weight_sum([Weight(1, 2), Weight(1, 3), Weight(1, 6)])
        assert total == Weight(1, 1)
        assert total <= 1

    def test_fig5_total(self):
        ws = [Weight(1, 2), Weight(1, 3), Weight(1, 3), Weight(2, 9), Weight(2, 9)]
        assert weight_sum(ws) == Weight(29, 18)


@given(a=pos, b=pos, c=pos, d=pos)
def test_prop_add_matches_fractions(a, b, c, d):
    from fractions import Fraction

    w = Weight(a, b) + Weight(c, d)
    assert Fraction(w.num, w.den) == Fraction(a, b) + Fraction(c, d)


@given(a=pos, b=pos, c=pos, d=pos)
def test_prop_ordering_matches_fractions(a, b, c, d):
    from fractions import Fraction

    assert (Weight(a, b) < Weight(c, d)) == (Fraction(a, b) < Fraction(c, d))
    assert (Weight(a, b) == Weight(c, d)) == (Fraction(a, b) == Fraction(c, d))


@given(st.lists(st.tuples(pos, pos), min_size=1, max_size=20))
def test_prop_weight_sum_matches_fractions(pairs):
    from fractions import Fraction

    total = weight_sum(Weight(a, b) for a, b in pairs)
    expected = sum(Fraction(a, b) for a, b in pairs)
    assert Fraction(total.num, total.den) == expected


# ``float_sum`` must be ``float(exact_sum(...))`` bit for bit.  Terms mix
# generator-sized values with zero numerators and numerators and
# denominators far past a double's range.
_nums = st.one_of(st.integers(0, 1000), st.integers(0, 10**40))
_dens = st.one_of(st.integers(1, 1000), st.integers(1, 10**40))
_terms = st.lists(st.tuples(_nums, _dens), max_size=300)
#: Sums below 2**53: at most 300 terms of at most 10**6 each.
_bounded_terms = st.lists(st.tuples(st.integers(0, 10**6), _dens),
                          max_size=300)


def _split(pairs):
    return [n for n, _ in pairs], [d for _, d in pairs]


@pytest.fixture
def exact_fallbacks(monkeypatch):
    """Count the sums ``float_sum`` hands to the exact pair."""
    calls = []
    pair = rational._sum_pair

    def counting(nums, dens):
        calls.append(len(dens))
        return pair(nums, dens)

    monkeypatch.setattr(rational, "_sum_pair", counting)
    return calls


class TestFloatSum:
    @given(_terms)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_rounded_exact_sum(self, pairs):
        nums, dens = _split(pairs)
        assert float_sum(nums, dens) == float(exact_sum(nums, dens))

    @given(_bounded_terms, st.integers(1, 300))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_integer_totals_skip_the_exact_sum(self, exact_fallbacks, pairs,
                                               complement):
        """A term completing the sum to the next integer: the screen
        decides every positive integer total below ``2**53`` (the
        docstring's bound)."""
        total = exact_sum(*_split(pairs))
        rest = (math.floor(total) + 1) - total  # in (0, 1]
        nums, dens = _split(pairs + [(rest.numerator * complement,
                                      rest.denominator * complement)])
        exact_fallbacks.clear()  # exact_sum above went through the pair
        assert float_sum(nums, dens) == math.floor(total) + 1
        assert exact_fallbacks == []

    @given(st.integers(0, 2**52 - 1), st.integers(-60, 60),
           st.integers(1, 2**20))
    @settings(max_examples=200, deadline=None)
    def test_dyadic_ties_round_to_even(self, j, exp, split):
        """``(2**53 + 2j + 1) * 2**(exp - 53)`` lies halfway between two
        doubles; split over two terms, it must still round to even."""
        num = 2**53 + 2 * j + 1
        den = 2**53
        if exp >= 0:
            num <<= exp
        else:
            den <<= -exp
        a = min(split, num)
        nums, dens = [a, num - a], [den, den]
        assert float_sum(nums, dens) == float(Fraction(num, den))

    def test_tie_takes_the_exact_fallback(self, exact_fallbacks):
        """1 + 2**-53 is halfway between 1 and the next double: its lower
        bound rounds down to even, its upper bound up."""
        assert float_sum([2**53 + 1], [2**53]) == 1.0
        assert exact_fallbacks == [1]

    def test_screen_decides_ordinary_sums(self, exact_fallbacks):
        # A tie whose even neighbour is the upper one: both bounds round
        # up to it, so the screen decides it.
        assert float_sum([2**53 + 3], [2**53]) == 1.0 + 2.0**-51
        assert float_sum([1, 1, 1], [2, 3, 6]) == 1.0
        assert float_sum([1, 2, 3], [3, 7, 11]) == float(
            Fraction(1, 3) + Fraction(2, 7) + Fraction(3, 11))
        assert exact_fallbacks == []

    def test_empty_and_zero_sums(self):
        assert float_sum([], []) == 0.0
        assert float_sum([0, 0], [3, 10**40]) == 0.0
