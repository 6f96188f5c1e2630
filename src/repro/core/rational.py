"""Exact rational weights for Pfair scheduling.

Every scheduling decision in this library is made with exact integer
arithmetic.  A Pfair task's *weight* is the rational ``e/p`` where ``e`` is
its per-job execution requirement and ``p`` its period, both expressed in
whole scheduling quanta.  Floating point is never used for priorities,
releases, deadlines, or feasibility sums: accumulated rounding error in a
10^6-slot simulation would silently corrupt tie-breaks, and Pfair
correctness proofs are stated over exact rationals.

:class:`Weight` is a small immutable value type — deliberately simpler and
faster than :class:`fractions.Fraction` (no normalisation on every
arithmetic op, hashing on the reduced pair, rich comparisons by
cross-multiplication).  Use :func:`weight_sum` to form exact feasibility
sums such as the Pfair test ``sum(wt) <= M``, and :func:`exact_sum` for
the same sum over raw ``(num, den)`` pairs when the terms are never
needed as values; :func:`float_sum` is that sum rounded once to a float,
for exports that keep nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import floordiv, lshift
from typing import Iterable, Sequence, Tuple

__all__ = ["Weight", "weight_sum", "exact_sum", "float_sum"]


class Weight:
    """An exact rational weight ``num/den`` with ``0 < num/den <= 1`` allowed
    to be relaxed for sums.

    Instances are immutable, hashable, reduced to lowest terms, and ordered
    by exact cross-multiplication.
    """

    __slots__ = ("num", "den")

    num: int
    den: int

    def __init__(self, num: int, den: int) -> None:
        if den == 0:
            raise ZeroDivisionError("weight denominator must be nonzero")
        if num < 0 or den < 0:
            raise ValueError(f"weight must be nonnegative, got {num}/{den}")
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Weight is immutable")

    # Immutability makes sharing safe: copies return self, and pickling
    # goes through the constructor (the default slot-state protocol would
    # trip over the guarded __setattr__ above).

    def __copy__(self) -> "Weight":
        return self

    def __deepcopy__(self, memo: object) -> "Weight":
        return self

    def __reduce__(self) -> "Tuple[type, Tuple[int, int]]":
        return (Weight, (self.num, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of_task(cls, execution: int, period: int) -> "Weight":
        """Weight of a task with integer ``execution`` cost and ``period``.

        Enforces the Pfair constraint ``0 < e/p <= 1``.
        """
        if execution <= 0:
            raise ValueError(f"execution cost must be positive, got {execution}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if execution > period:
            raise ValueError(
                f"weight {execution}/{period} exceeds 1; Pfair weights are at most 1"
            )
        return cls(execution, period)

    @classmethod
    def zero(cls) -> "Weight":
        return cls(0, 1)

    # -- predicates from the paper ----------------------------------------

    def is_light(self) -> bool:
        """A task is *light* iff its weight is < 1/2 (paper, Sec. 2)."""
        return 2 * self.num < self.den

    def is_heavy(self) -> bool:
        """A task is *heavy* iff its weight is >= 1/2 (paper, Sec. 2)."""
        return 2 * self.num >= self.den

    def is_unit(self) -> bool:
        """True iff the weight is exactly 1 (every slot needed)."""
        return self.num == self.den

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        num = self.num * other.den - other.num * self.den
        if num < 0:
            raise ValueError("weight subtraction went negative")
        return Weight(num, self.den * other.den)

    def __mul__(self, other: "Weight | int") -> "Weight":
        if isinstance(other, int):
            return Weight(self.num * other, self.den)
        if isinstance(other, Weight):
            return Weight(self.num * other.num, self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons (exact cross multiplication) --------------------------

    def _cmp_key(self, other: "Weight") -> Tuple[int, int]:
        return self.num * other.den, other.num * self.den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Weight):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Weight):
            a, b = self._cmp_key(other)
            return a < b
        if isinstance(other, int):
            return self.num < other * self.den
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Weight):
            a, b = self._cmp_key(other)
            return a <= b
        if isinstance(other, int):
            return self.num <= other * self.den
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        le = self.__le__(other)
        return NotImplemented if le is NotImplemented else not le

    def __ge__(self, other: object) -> bool:
        lt = self.__lt__(other)
        return NotImplemented if lt is NotImplemented else not lt

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        # Export-only conversion (plots, JSON); every comparison and
        # scheduling decision stays on the exact num/den pair.
        return self.num / self.den  # staticcheck: allow[R001]

    def ceil(self) -> int:
        """Smallest integer >= the weight value."""
        return -(-self.num // self.den)

    def floor(self) -> int:
        return self.num // self.den

    def __repr__(self) -> str:
        return f"Weight({self.num}/{self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def weight_sum(weights: Iterable[Weight]) -> Weight:
    """Exact sum of weights.

    Folds over a running ``num/den`` pair, reducing as it goes so the
    intermediate integers stay near the lcm of the denominators seen so
    far.  Used for the Pfair feasibility test ``weight_sum(wts) <= M``
    (Eq. (2) in the paper), which must be exact: a task set with total
    weight exactly ``M`` is feasible, and a float sum could tip either way.
    """
    num, den = 0, 1
    for w in weights:
        num = num * w.den + w.num * den
        den = den * w.den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
    return Weight(num, den)


#: Terms :func:`exact_sum` folds left to right rather than splitting.
_SUM_RUN = 64


def exact_sum(nums: Sequence[int], dens: Sequence[int]) -> Fraction:
    """Exact ``sum(nums[i] / dens[i])`` (every ``dens[i] > 0``), as a
    reduced :class:`~fractions.Fraction`.

    No term is normalised and only the result is reduced, so the work
    is integer multiplication plus one gcd.  A left fold multiplies an
    ever-growing denominator by one small factor per term, which is
    quadratic in the bit length, so longer inputs are split in halves
    whose sums are added: the large products then pair operands of
    similar size.  Rational addition is exact in any order, so the
    result equals the left fold's.
    """
    return Fraction(*_sum_pair(nums, dens))


def _sum_pair(nums: Sequence[int], dens: Sequence[int]) -> Tuple[int, int]:
    """:func:`exact_sum` as an unreduced ``(num, den)`` pair."""
    if len(dens) > _SUM_RUN:
        mid = len(dens) // 2
        n1, d1 = _sum_pair(nums[:mid], dens[:mid])
        n2, d2 = _sum_pair(nums[mid:], dens[mid:])
        return n1 * d2 + n2 * d1, d1 * d2
    num, den = 0, 1
    for n, d in zip(nums, dens):
        num = num * d + n * den
        den *= d
    return num, den


#: Fraction bits of :func:`float_sum`'s fixed-point screen.
_FIX_BITS = 96


def float_sum(nums: Sequence[int], dens: Sequence[int]) -> float:
    """``float(exact_sum(nums, dens))`` — the exact sum correctly rounded
    to a double — without building the exact sum when a fixed-point
    screen decides it.

    ``A = sum((n << K) // d)`` with ``K = 96`` floors each term once, so
    the true sum times ``2**K`` lies in ``[A, A + len(dens))``.  Rounding
    to the nearest double is monotone, so when ``A / 2**K`` and
    ``(A + len(dens)) / 2**K`` (both correctly rounded int divisions)
    round to the same double, so does every value between them, the
    sum included.  Otherwise the sum lies within ``len(dens) * 2**-96``
    of a rounding boundary (a tie such as ``(2**53 + 1) / 2**53``, or an
    all-zero sum, whose interval straddles 0), and the unreduced exact
    pair is divided instead, also correctly rounded, with no gcd.  An
    integer total ``1 <= k <= 2**53`` never takes that branch: ``k`` is
    a double, and the doubles next to it are at least ``2**-53`` away,
    far outside the interval for fewer than ``2**42`` terms.
    """
    k = _FIX_BITS
    acc = sum(map(floordiv, map(lshift, nums, repeat(k)), dens))
    # Export-only: each division below is a correctly rounded int one.
    lo = acc / (1 << k)  # staticcheck: allow[R001]
    if lo == (acc + len(dens)) / (1 << k):  # staticcheck: allow[R001]
        return lo
    num, den = _sum_pair(nums, dens)
    return num / den  # staticcheck: allow[R001]
