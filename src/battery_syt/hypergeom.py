"""Exact evaluation of terminating hypergeometric series and their nested, leveled
generalization.

All series here terminate because some numerator parameter is a non-positive
integer. Every series is taken at argument 1, as all of the paper's are, and
values are exact ``Fraction``s. One rule bounds every level: it stops at
``termination_index`` of its numerators, and an inner level also at its outer
index, as if minus that index were one more numerator. The series walk is
integer Horner: each level's sum is folded from the tail as one integer
fraction, reduced once per level value, with each step ratio computed where
it is used; only the top level becomes a ``Fraction``.
"""

from fractions import Fraction
from math import gcd
from operator import mul

from . import _EXPORTS, Record

__all__ = list(_EXPORTS["hypergeom"])


class NonTerminatingSeriesError(ValueError):
    """No numerator parameter is a non-positive integer, so the series is infinite."""


class ZeroDenominatorFactorError(ArithmeticError):
    """A denominator factor vanished at a summation step the series actually reaches."""


class PFQParams(Record):
    """Integer parameters of a terminating series sum_j prod(a_i)_j / prod(b_i)_j / j!."""

    __slots__ = ("numerators", "denominators")

    def __init__(self, numerators: tuple[int, ...], denominators: tuple[int, ...]) -> None:
        self._set(tuple(int(x) for x in numerators), tuple(int(x) for x in denominators))


def termination_index(numerators) -> int:
    """Last non-vanishing summation index: the smallest |a| over non-positive numerators."""
    caps = [-a for a in numerators if a <= 0]
    if not caps:
        raise NonTerminatingSeriesError(
            f"no non-positive integer among numerators {tuple(numerators)}"
        )
    return min(caps)


def eval_pfq(params: PFQParams) -> Fraction:
    """Exact value of a terminating series: the one-level nested sum."""
    level = PFQLevel(
        tuple(map(AffineParam, params.numerators)),
        tuple(map(AffineParam, params.denominators)),
    )
    return eval_multi_pfq((level,))


class AffineParam(Record):
    """Integer parameter const + sum(coeffs[i] * outer[i]) over outer summation indices.

    Coefficients beyond len(coeffs) are implicitly zero, so constants need no
    padding.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const: int, coeffs: tuple[int, ...] = ()) -> None:
        self._set(const, coeffs)

    def at(self, outer: tuple[int, ...]) -> int:
        return sum(map(mul, self.coeffs, outer), self.const)


class PFQLevel(Record):
    """One level of a nested hypergeometric sum; parameters may depend on outer indices."""

    __slots__ = ("numerators", "denominators")

    def __init__(
        self, numerators: tuple[AffineParam, ...], denominators: tuple[AffineParam, ...]
    ) -> None:
        self._set(numerators, denominators)


def _level_sum(levels, outer: tuple[int, ...]) -> tuple[int, int]:
    """Numerator and denominator of level ``len(outer)``'s sum at the outer indices
    ``outer``; 1 below the last level, and at an outer index 0, where this level
    and every one below it stop at their first term.

    Bounded by the one rule above, the walk meets no vanishing numerator factor
    a+j, so every term it reaches is nonzero and a vanishing denominator factor
    there is an error. Horner from the tail: with inner values p_j/q_j and step
    ratios t_{j+1}/t_j = num_j/den_j = prod(a+j) / ((j+1)*prod(b+j)),
    P/Q <- p_j/q_j + num_j/den_j * P/Q, all in integers, reduced once at the end.
    """
    if len(outer) == len(levels) or outer[-1:] == (0,):
        return 1, 1
    level = levels[len(outer)]
    nums = [p.at(outer) for p in level.numerators]
    dens = [p.at(outer) for p in level.denominators]
    bound = termination_index(nums + [-x for x in outer[-1:]])
    P, Q = _level_sum(levels, outer + (bound,))
    for j in range(bound - 1, -1, -1):
        num, den = 1, j + 1
        for a in nums:
            num *= a + j
        for b in dens:
            den *= b + j
        if den == 0:
            zero = next(b for b in dens if b + j == 0)
            raise ZeroDenominatorFactorError(
                f"denominator factor {zero} vanished at step {j} of {bound}"
            )
        p, q = _level_sum(levels, outer + (j,))
        P, Q = p * den * Q + num * P * q, q * den * Q
    g = gcd(P, Q)
    return P // g, Q // g


def eval_multi_pfq(levels: tuple[PFQLevel, ...]) -> Fraction:
    """Exact value of the leveled sum over indices m_0 >= m_1 >= ... with per-level
    Pochhammer quotients.

    Each level contributes prod(a)_{m_i} / prod(b)_{m_i} / m_i! where the
    level's parameters are affine in the outer indices m_0..m_{i-1}. Level 0
    must terminate through a non-positive numerator.
    """
    return Fraction(*_level_sum(levels, ()))
