"""Exact evaluation of terminating hypergeometric series and their nested, leveled
generalization.

All series here terminate because some numerator parameter is a non-positive
integer. Every series is taken at argument 1, as all of the paper's are, and
values are exact ``Fraction``s. The series walk is integer Horner: each
level's step ratios are integer numerator/denominator pairs, the level's sum
is folded from the tail as one integer fraction, reduced once per level value,
and only the top level becomes a ``Fraction``. A nested sum's affine
parameters are compiled once per call into sparse groups, with equal
parameters merged.
"""

from fractions import Fraction
from math import gcd

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
    cap = min((-a for a in numerators if a <= 0), default=None)
    if cap is None:
        raise NonTerminatingSeriesError(
            f"no non-positive integer among numerators {tuple(numerators)}"
        )
    return cap


def _ratios(nums, dens, bound: int):
    """Yield the step ratios t_{j+1}/t_j = prod(a+j) / (prod(b+j)*(j+1)) as int pairs.

    The walk takes steps j = 0..bound-1, and callers take the bound no larger
    than the smallest |a| over non-positive numerators. So no numerator factor
    a+j vanishes on the walk, every term it reaches is nonzero, and a vanishing
    denominator factor there is an error.
    """
    for j in range(bound):
        den = j + 1
        for b in dens:
            den *= b + j
        if den == 0:
            zero = next(b for b in dens if b + j == 0)
            raise ZeroDenominatorFactorError(
                f"denominator factor {zero} vanished at step {j} of {bound}"
            )
        num = 1
        for a in nums:
            num *= a + j
        yield num, den


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
        return self.const + sum(c * x for c, x in zip(self.coeffs, outer))


class PFQLevel(Record):
    """One level of a nested hypergeometric sum; parameters may depend on outer indices."""

    __slots__ = ("numerators", "denominators")

    def __init__(
        self, numerators: tuple[AffineParam, ...], denominators: tuple[AffineParam, ...]
    ) -> None:
        self._set(numerators, denominators)


def _compile(params) -> tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]:
    """Sparse (const, ((index, coeff), ...), multiplicity) groups; equal parameters merge."""
    counts: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
    for p in params:
        key = (p.const, tuple((i, c) for i, c in enumerate(p.coeffs) if c))
        counts[key] = counts.get(key, 0) + 1
    return tuple((const, terms, mult) for (const, terms), mult in counts.items())


def _at(groups, outer: tuple[int, ...]) -> list[int]:
    """Parameter values at the outer indices, each repeated by its multiplicity."""
    values = []
    for const, terms, mult in groups:
        for i, k in terms:
            const += k * outer[i]
        values += (const,) * mult
    return values


def _level_sum(levels, index: int, outer: tuple[int, ...]) -> tuple[int, int]:
    """Numerator and denominator of level ``index``'s sum at the outer indices ``outer``.

    Horner from the tail: with inner values p_j/q_j (1 at the last level) and
    step ratios num_j/den_j, P/Q <- p_j/q_j + num_j/den_j * P/Q, all in
    integers, reduced once at the end.
    """
    nums, dens = levels[index]
    nums, dens = _at(nums, outer), _at(dens, outer)
    if index == 0:
        bound = termination_index(nums)
    else:
        bound = min([outer[-1]] + [-a for a in nums if a <= 0])
    ratios = list(_ratios(nums, dens, bound))
    if index == len(levels) - 1:
        P = Q = 1
        for num, den in reversed(ratios):
            P, Q = P * num + Q * den, Q * den
    else:
        inner = index + 1
        P, Q = _level_sum(levels, inner, outer + (len(ratios),))
        for j in range(len(ratios) - 1, -1, -1):
            num, den = ratios[j]
            p, q = _level_sum(levels, inner, outer + (j,))
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
    if not levels:
        return Fraction(1)
    compiled = tuple((_compile(level.numerators), _compile(level.denominators)) for level in levels)
    return Fraction(*_level_sum(compiled, 0, ()))
