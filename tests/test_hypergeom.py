import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from battery_syt.hypergeom import (
    AffineParam,
    NonTerminatingSeriesError,
    PFQLevel,
    PFQParams,
    ZeroDenominatorFactorError,
    eval_multi_pfq,
    eval_pfq,
    termination_index,
)
from conftest import contiguous_step, gauss_2f1_neg, multichoose, reduce_3f2, rising


def F(*args):
    return Fraction(*args)


def test_eval_pfq_known_values():
    assert eval_pfq(PFQParams((-1, 2), (-2,))) == 2
    assert eval_pfq(PFQParams((0, 3, 7), (2, -5))) == 1
    assert eval_pfq(PFQParams((1, 2, -2), (1, -4))) == F(5, 2)


def test_eval_pfq_rejects_non_terminating():
    with pytest.raises(NonTerminatingSeriesError):
        eval_pfq(PFQParams((1, 2), (3,)))


def test_eval_pfq_zero_denominator_before_termination():
    # terminates at step 3 but the denominator parameter -2 vanishes at step 2
    with pytest.raises(ZeroDenominatorFactorError):
        eval_pfq(PFQParams((-3, 1), (-2,)))
    # a numerator 0 ends the series before the bad denominator is reached
    assert eval_pfq(PFQParams((0, -3), (-2,))) == 1


def test_zero_z_hides_a_later_zero_denominator():
    # a factor vanishing at step 0 is reached from t_0 = 1
    with pytest.raises(ZeroDenominatorFactorError):
        eval_pfq(PFQParams((-3,), (0,)))


def test_termination_index():
    assert termination_index((-4, 2, -1)) == 1
    assert termination_index((0, 5)) == 0
    with pytest.raises(NonTerminatingSeriesError):
        termination_index((1, 2))


def test_term_recurrence_matches_pochhammer_products():
    rng = random.Random(20250810)
    for _ in range(20):
        p = rng.randint(1, 4)
        q = rng.randint(0, 3)
        nums = [rng.randint(-9, 9) for _ in range(p - 1)] + [rng.randint(-9, 0)]
        rng.shuffle(nums)
        cap = termination_index(nums)
        dens = [rng.choice([rng.randint(1, 9), -cap - rng.randint(0, 5)]) for _ in range(q)]
        # the terms t_0..t_cap by their Pochhammer products; none vanishes
        terms = [
            F(prod(rising(a, j) for a in nums), prod(rising(b, j) for b in dens) * factorial(j))
            for j in range(cap + 1)
        ]
        assert 0 not in terms
        assert eval_pfq(PFQParams(tuple(nums), tuple(dens))) == sum(terms)


def test_gauss_known_values():
    for b in range(1, 5):
        for c in range(0, 5):
            assert gauss_2f1_neg(0, b, c) == 1
    assert gauss_2f1_neg(1, 2, 3) == F(5, 3)
    assert gauss_2f1_neg(2, 1, 2) == 3
    with pytest.raises(ValueError):
        gauss_2f1_neg(3, 2, 2)
    with pytest.raises(ValueError):
        gauss_2f1_neg(1, 0, 2)


def test_gauss_matches_direct_summation():
    for c in range(0, 9):
        for a in range(0, c + 1):
            for b in range(1, 9):
                direct = eval_pfq(PFQParams((-a, b), (-c,)))
                assert direct == gauss_2f1_neg(a, b, c)


def test_contiguous_step_known_cases():
    step = contiguous_step(2, 1, 1, 1, 2)
    assert step.coefficient1 == -2 and step.coefficient2 == 2
    assert step.evaluate() == eval_pfq(PFQParams((2, 1, -1), (1, -2))) == 2

    # numerator 0 collapses every series to 1, so only the coefficients matter
    for c in range(0, 4):
        for d in range(1, 4):
            for e in range(c, 5):
                step = contiguous_step(0, 2, c, d, e)
                assert step.evaluate() == 1

    # base case b = -1: source is 1 - ac/(de)
    step = contiguous_step(1, -1, 1, 1, 1)
    assert step.evaluate() == eval_pfq(PFQParams((1, -1, -1), (1, -1))) == 0


def test_contiguous_step_rejects_bad_ranges():
    with pytest.raises(ValueError):
        contiguous_step(-1, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        contiguous_step(1, -2, 1, 1, 2)
    with pytest.raises(ValueError):
        contiguous_step(1, 1, 1, 0, 2)
    with pytest.raises(ValueError):
        contiguous_step(1, 1, 3, 1, 2)


def test_contiguous_identity_grid():
    for a in range(0, 4):
        for b in range(-1, 4):
            for d in range(1, 4):
                for e in range(0, 5):
                    for c in range(0, e + 1):
                        source = eval_pfq(PFQParams((a, b, -c), (d, -e)))
                        assert contiguous_step(a, b, c, d, e).evaluate() == source


def test_sum_expansion_identity_grid():
    # F(a,b,-c;d,-e) == 1 + bc/(de) * sum_t F(t,b+1,-c+1;d+1,-e+1)
    for a in range(1, 5):
        for b in range(1, 4):
            for d in range(1, 4):
                for e in range(1, 5):
                    for c in range(1, e + 1):
                        lhs = eval_pfq(PFQParams((a, b, -c), (d, -e)))
                        tail = sum(
                            eval_pfq(PFQParams((t, b + 1, -c + 1), (d + 1, -e + 1)))
                            for t in range(1, a + 1)
                        )
                        assert lhs == 1 + F(b * c, d * e) * tail


def test_reduce_3f2_known_values():
    # one-step case collapses straight to the binomial quotient
    for m in range(1, 5):
        for n in range(0, 5):
            assert reduce_3f2(1, m, n, m * n + 2) == gauss_2f1_neg(n, m, m * n + 2)
    assert reduce_3f2(2, 2, 2, 4) == F(9, 2)
    assert reduce_3f2(3, 3, 2, 6) == eval_pfq(PFQParams((3, 3, -2), (1, -6)))


def test_reduce_3f2_matches_direct_summation():
    for a in range(1, 5):
        for b in range(1, 5):
            for e in range(0, 8):
                for c in range(0, e + 1):
                    assert reduce_3f2(a, b, c, e) == eval_pfq(PFQParams((a, b, -c), (1, -e)))


def test_reduce_3f2_rejects_bad_ranges():
    with pytest.raises(ValueError):
        reduce_3f2(0, 1, 1, 2)
    with pytest.raises(ValueError):
        reduce_3f2(2, 1, 3, 2)


def test_affine_param():
    assert AffineParam(-1, (-1,)).at((3,)) == -4
    assert AffineParam(5).at((2, 7)) == 5
    assert AffineParam(0, (1, 1)).at((2, 7)) == 9


def test_multi_pfq_single_level_equals_pfq():
    cases = [
        ((-3, 2, 5), (1, -7)),
        ((4, -2), (-6,)),
        ((0, 9), (3,)),
    ]
    for nums, dens in cases:
        levels = (
            PFQLevel(
                numerators=tuple(AffineParam(v) for v in nums),
                denominators=tuple(AffineParam(v) for v in dens),
            ),
        )
        assert eval_multi_pfq(levels) == eval_pfq(PFQParams(nums, dens))


def test_multi_pfq_zero_numerator_gives_one():
    levels = (
        PFQLevel((AffineParam(0), AffineParam(3)), (AffineParam(-5),)),
        PFQLevel((AffineParam(1, (1,)),), (AffineParam(1),)),
    )
    assert eval_multi_pfq(levels) == 1


def test_multi_pfq_rejects_non_terminating_level_zero():
    levels = (PFQLevel((AffineParam(2),), (AffineParam(1),)),)
    with pytest.raises(NonTerminatingSeriesError):
        eval_multi_pfq(levels)


def _two_levels(m, n, a):
    # first counting level (index t), second level depends on it (index v)
    return (
        PFQLevel(
            numerators=(AffineParam(a), AffineParam(m), AffineParam(-n)),
            denominators=(AffineParam(-m * n), AffineParam(1)),
        ),
        PFQLevel(
            numerators=(
                AffineParam(a, (1,)), AffineParam(m - 1), AffineParam(-n - 1),
                AffineParam(0, (-1,)), AffineParam(0, (-1,)),
            ),
            denominators=(
                AffineParam(-m * n, (1,)), AffineParam(-1, (-1,)),
                AffineParam(-1, (-1,)), AffineParam(1),
            ),
        ),
    )


def test_multi_pfq_two_levels_equals_hand_rolled_double_sum():
    # independent route: the same nested sum written with binomial products
    def double_sum(m, n, a):
        total = Fraction(0)
        for t in range(0, n + 1):
            for v in range(0, t + 1):
                total += F(
                    multichoose(a, t + v)
                    * comb(t + m - 1, t)
                    * comb(v + m - 2, v)
                    * comb(n, t)
                    * comb(n + 1, v)
                    * comb(t, v)
                    * (t - v + 1),
                    comb(m * n, t + v) * comb(t + 1, v) * (t + 1),
                )
        return total

    for m in range(3, 6):
        for n in range(1, 4):
            for a in range(0, 4):
                assert eval_multi_pfq(_two_levels(m, n, a)) == double_sum(m, n, a)


def _nested_sum_reference(levels):
    """The nested sum term by term: per-level Pochhammer products over m_0 >= m_1 >= ...

    A term whose numerator product vanishes contributes nothing, and neither do
    the later terms of its level or the levels inside it. A denominator product
    that vanishes at a term reached from a nonzero one is a
    ZeroDenominatorFactorError.
    """
    def level_sum(i, outer):
        level = levels[i]
        nums = [p.at(outer) for p in level.numerators]
        dens = [p.at(outer) for p in level.denominators]
        caps = [-a for a in nums if a <= 0]
        if i == 0:
            if not caps:
                raise NonTerminatingSeriesError("level 0 does not terminate")
            bound = min(caps)
        else:
            bound = min(caps + [outer[-1]])
        total = Fraction(0)
        for m in range(bound + 1):
            den = prod(rising(b, m) for b in dens) * factorial(m)
            if den == 0:
                raise ZeroDenominatorFactorError(f"level {i} at m={m}")
            num = prod(rising(a, m) for a in nums)
            if num == 0:
                break
            inner = level_sum(i + 1, outer + (m,)) if i + 1 < len(levels) else 1
            total += Fraction(num, den) * inner
        return total

    return level_sum(0, ())


@st.composite
def small_multi_specs(draw):
    """1-3 levels of 1-3 numerators and 0-2 denominators, constants in [-6, 4],
    coefficients in [-1, 1] on the outer indices. Level 0's first numerator is
    a constant in [-5, -1], so every nested sum terminates."""
    levels = []
    for i in range(draw(st.integers(1, 3))):
        def param():
            coeffs = draw(st.lists(st.integers(-1, 1), min_size=i, max_size=i))
            return AffineParam(draw(st.integers(-6, 4)), tuple(coeffs))

        nums = tuple(param() for _ in range(draw(st.integers(1, 3))))
        if i == 0:
            nums = (AffineParam(-draw(st.integers(1, 5))),) + nums[1:]
        dens = tuple(param() for _ in range(draw(st.integers(0, 2))))
        levels.append(PFQLevel(nums, dens))
    return tuple(levels)


def _outcome(evaluate, levels):
    try:
        return evaluate(levels)
    except (NonTerminatingSeriesError, ZeroDenominatorFactorError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(small_multi_specs())
def test_multi_pfq_matches_term_by_term_reference(levels):
    assert _outcome(eval_multi_pfq, levels) == _outcome(_nested_sum_reference, levels)
