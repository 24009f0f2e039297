"""Exact evaluation of terminating hypergeometric series and their nested, leveled
generalization.

All series here terminate because some numerator parameter is a non-positive
integer. Every series is taken at argument 1, as all of the paper's are. A
nested sum is given by a function of the outer summation indices: at the
indices ``outer`` of the levels above, it returns level ``len(outer)``'s
integer (numerators, denominators) lists. A value is an exact (numerator,
denominator) pair of integers in lowest terms with a positive denominator.
One rule bounds every level: it stops at ``termination_index`` of its
numerators, and an inner level also at its outer index, as if minus that
index were one more numerator. The series walk is integer Horner: each
level's sum is folded from the tail as one integer fraction, reduced once
per level value, with each step ratio computed where it is used. The open
levels are kept in a list, not on the interpreter stack, so a nest of any
depth is walked whatever the recursion limit.
"""

from math import gcd

from . import _EXPORTS, _integral

__all__ = list(_EXPORTS["hypergeom"])


class NonTerminatingSeriesError(ValueError):
    """No numerator parameter is a non-positive integer, so the series is infinite."""


class ZeroDenominatorFactorError(ArithmeticError):
    """A denominator factor vanished at a summation step the series actually reaches."""


def termination_index(numerators) -> int:
    """Last non-vanishing summation index: the smallest |a| over non-positive numerators."""
    caps = [-a for a in numerators if a <= 0]
    if not caps:
        raise NonTerminatingSeriesError(
            f"no non-positive integer among numerators {tuple(numerators)}"
        )
    return min(caps)


def eval_pfq(numerators, denominators) -> tuple[int, int]:
    """Exact value of the terminating series sum_j prod(a_i)_j / prod(b_i)_j / j!
    over integer parameters, each a whole number: the one-level nested sum."""
    level = list(map(_integral, numerators)), list(map(_integral, denominators))
    return eval_multi_pfq(lambda outer: level, 1)


def eval_multi_pfq(params, depth: int) -> tuple[int, int]:
    """Exact value of the ``depth``-level sum over indices m_0 >= m_1 >= ... with
    per-level Pochhammer quotients, as a (numerator, denominator) pair in
    lowest terms with a positive denominator.

    Level i contributes prod(a)_{m_i} / prod(b)_{m_i} / m_i!, where
    ``params(outer)`` gives its integer parameters as lists (numerators,
    denominators) at the outer indices outer = (m_0, ..., m_{i-1}). Level 0
    must terminate through a non-positive numerator.

    Each open level is [numerators, denominators, P, Q], P/Q its sum so far,
    with its current index in ``outer``. A level opens at its bound; below the
    last level, or an index 0, the value is 1. The walk meets no vanishing
    numerator factor a+j, so a vanishing denominator factor is an error. With
    inner values p_j/q_j and step ratios num_j/den_j = prod(a+j) / ((j+1)*prod(b+j)),
    P/Q <- p_j/q_j + num_j/den_j * P/Q, the ratio applied on the way to j.
    ``depth`` is a whole number, at least 0; depth 0 is the empty sum's 1.
    """
    depth = _integral(depth)
    if depth < 0:
        raise ValueError(f"nested sum depth must be non-negative, got {depth}")
    levels, outer = [], []
    while True:
        while len(outer) < depth and outer[-1:] != [0]:
            nums, dens = params(tuple(outer))
            levels.append([nums, dens, 0, 1])
            outer.append(termination_index(nums + [-x for x in outer[-1:]]))
        p, q = 1, 1
        while levels:
            nums, dens, P, Q = level = levels[-1]
            P, Q = p * Q + P * q, q * Q
            j = outer[-1] - 1
            if j >= 0:
                break
            g = gcd(P, Q)
            p, q = P // g, Q // g
            levels.pop()
            outer.pop()
        else:
            return (p, q) if q > 0 else (-p, -q)
        num, den = 1, j + 1
        for a in nums:
            num *= a + j
        for b in dens:
            den *= b + j
        if den == 0:
            zero = next(b for b in dens if b + j == 0)
            bound = termination_index(nums + [-x for x in outer[-2:-1]])
            raise ZeroDenominatorFactorError(f"denominator factor {zero} vanished at step {j} of {bound}")
        level[2:] = num * P, den * Q
        outer[-1] = j
