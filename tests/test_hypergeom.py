import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from battery_syt.counting import _series_params
from battery_syt.hypergeom import (
    NonTerminatingSeriesError,
    ZeroDenominatorFactorError,
    eval_multi_pfq,
    eval_pfq,
    termination_index,
)
from conftest import as_fraction, contiguous_step, gauss_2f1_neg, multichoose, reduce_3f2, rising, series


def F(*args):
    return Fraction(*args)


def test_eval_pfq_known_values():
    # (numerator, denominator) in lowest terms, the denominator positive
    assert eval_pfq((-1, 2), (-2,)) == (2, 1)
    assert eval_pfq((0, 3, 7), (2, -5)) == (1, 1)
    assert eval_pfq((1, 2, -2), (1, -4)) == (5, 2)
    assert eval_pfq((-1, 1), (1,)) == (0, 1)  # 1 - 1
    assert eval_pfq((-1, 1), (-2,)) == (3, 2)  # 1 + 1/2: the step's denominator product is -2
    assert eval_pfq((-1, 3), (2,)) == (-1, 2)  # 1 - 3/2
    assert eval_pfq((-2, 6), (-3,)) == (12, 1)  # 1 + 4 + 7, and C(9, 2) / C(3, 2)
    for nums, dens in (((-1, 2), (-2,)), ((-1, 1), (-2,)), ((-2, 6), (-3,))):
        num, den = eval_pfq(nums, dens)
        assert type(num) is int and type(den) is int
    # the parameters are read as integers
    assert eval_pfq([-2.0, 3], [4]) == eval_pfq((-2, 3), (4,)) == (1, 10)


def test_eval_pfq_refuses_a_parameter_that_is_not_whole():
    # 2F1(-2, 1/2; 1; 1) = 3/8; read as 2F1(-2, 0; 1; 1) it would be 1
    for nums, dens in (((-2, 0.5), (1,)), ((-2, 3), (1.5,))):
        with pytest.raises(ValueError, match="expected an integer"):
            eval_pfq(nums, dens)


def test_eval_pfq_rejects_non_terminating():
    with pytest.raises(NonTerminatingSeriesError):
        eval_pfq((1, 2), (3,))


def test_eval_pfq_zero_denominator_before_termination():
    # terminates at step 3 but the denominator parameter -2 vanishes at step 2
    with pytest.raises(ZeroDenominatorFactorError):
        eval_pfq((-3, 1), (-2,))
    # a numerator 0 ends the series before the bad denominator is reached
    assert eval_pfq((0, -3), (-2,)) == (1, 1)


def test_zero_z_hides_a_later_zero_denominator():
    # a factor vanishing at step 0 is reached from t_0 = 1
    with pytest.raises(ZeroDenominatorFactorError):
        eval_pfq((-3,), (0,))


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
        assert series(tuple(nums), tuple(dens)) == sum(terms)


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
                direct = series((-a, b), (-c,))
                assert direct == gauss_2f1_neg(a, b, c)


def test_contiguous_step_known_cases():
    step = contiguous_step(2, 1, 1, 1, 2)
    assert step.coefficient1 == -2 and step.coefficient2 == 2
    assert step.evaluate() == series((2, 1, -1), (1, -2)) == 2

    # numerator 0 collapses every series to 1, so only the coefficients matter
    for c in range(0, 4):
        for d in range(1, 4):
            for e in range(c, 5):
                step = contiguous_step(0, 2, c, d, e)
                assert step.evaluate() == 1

    # base case b = -1: source is 1 - ac/(de)
    step = contiguous_step(1, -1, 1, 1, 1)
    assert step.evaluate() == series((1, -1, -1), (1, -1)) == 0


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
                        source = series((a, b, -c), (d, -e))
                        assert contiguous_step(a, b, c, d, e).evaluate() == source


def test_sum_expansion_identity_grid():
    # F(a,b,-c;d,-e) == 1 + bc/(de) * sum_t F(t,b+1,-c+1;d+1,-e+1)
    for a in range(1, 5):
        for b in range(1, 4):
            for d in range(1, 4):
                for e in range(1, 5):
                    for c in range(1, e + 1):
                        lhs = series((a, b, -c), (d, -e))
                        tail = sum(
                            series((t, b + 1, -c + 1), (d + 1, -e + 1))
                            for t in range(1, a + 1)
                        )
                        assert lhs == 1 + F(b * c, d * e) * tail


def test_reduce_3f2_known_values():
    # one-step case collapses straight to the binomial quotient
    for m in range(1, 5):
        for n in range(0, 5):
            assert reduce_3f2(1, m, n, m * n + 2) == gauss_2f1_neg(n, m, m * n + 2)
    assert reduce_3f2(2, 2, 2, 4) == F(9, 2)
    assert reduce_3f2(3, 3, 2, 6) == series((3, 3, -2), (1, -6))


def test_reduce_3f2_matches_direct_summation():
    for a in range(1, 5):
        for b in range(1, 5):
            for e in range(0, 8):
                for c in range(0, e + 1):
                    assert reduce_3f2(a, b, c, e) == series((a, b, -c), (1, -e))


def test_reduce_3f2_rejects_bad_ranges():
    with pytest.raises(ValueError):
        reduce_3f2(0, 1, 1, 2)
    with pytest.raises(ValueError):
        reduce_3f2(2, 1, 3, 2)


def _constants(values):
    return tuple((v, ()) for v in values)


def _eval_levels(levels):
    """``eval_multi_pfq`` on levels of (const, coeffs) parameters, each read as
    const + sum(coeffs[j] * outer[j]) at the outer indices."""
    def params(outer):
        return [[c + sum(q * x for q, x in zip(coeffs, outer)) for c, coeffs in side] for side in levels[len(outer)]]

    return eval_multi_pfq(params, len(levels))


def test_affine_param():
    # a parameter (const, coeffs) is const + sum(coeffs[j] * outer[j]); the
    # coefficients past len(coeffs) are zero, so (5, ()) is (5, (0, 0))
    def nest(param):
        return ((_constants((-2,)), ()), (_constants((-2,)), ()), ((param,), _constants((1,))))

    assert _eval_levels(nest((5, ()))) == _eval_levels(nest((5, (0, 0))))
    assert _eval_levels(nest((-1, (-1,)))) == _eval_levels(nest((-1, (-1, 0))))
    for param in ((-1, (-1,)), (5, ()), (0, (1, 1)), (2, (0, -1)), (-3, (1,))):
        assert as_fraction(_eval_levels(nest(param))) == _nested_sum_reference(nest(param)), param


def test_multi_pfq_single_level_equals_pfq():
    cases = [
        ((-3, 2, 5), (1, -7)),
        ((4, -2), (-6,)),
        ((0, 9), (3,)),
    ]
    for nums, dens in cases:
        assert _eval_levels(((_constants(nums), _constants(dens)),)) == eval_pfq(nums, dens)


def test_multi_pfq_zero_numerator_gives_one():
    levels = (
        (_constants((0, 3)), _constants((-5,))),
        (((1, (1,)),), _constants((1,))),
    )
    assert _eval_levels(levels) == (1, 1)


def test_multi_pfq_walks_a_nest_of_any_depth():
    # each level is 1 - (its inner value at index 1), so d levels sum to 1
    # when d is even and to 0 when it is odd; the open levels are a list, so
    # 5000 of them are walked at the default recursion limit
    assert eval_multi_pfq(lambda outer: ([-1], []), 5000) == (1, 1)
    assert eval_multi_pfq(lambda outer: ([-1], []), 5001) == (0, 1)


def test_multi_pfq_reads_its_depth_as_a_whole_non_negative_number():
    # read as int, depth 1.5 would sum two levels, (3, 1), and depth -1 none, (1, 1)
    params = lambda outer: ([-2], [])  # noqa: E731
    assert eval_multi_pfq(params, 2.0) == eval_multi_pfq(params, 2) == (3, 1)
    assert eval_multi_pfq(params, 0) == (1, 1)
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        eval_multi_pfq(params, 1.5)
    with pytest.raises(ValueError, match="nested sum depth must be non-negative, got -1"):
        eval_multi_pfq(params, -1)


def test_multi_pfq_rejects_non_terminating_level_zero():
    levels = ((_constants((2,)), _constants((1,))),)
    with pytest.raises(NonTerminatingSeriesError):
        _eval_levels(levels)


def _two_levels(m, n, a):
    # first counting level (index t), second level depends on it (index v)
    return (
        (_constants((a, m, -n)), _constants((-m * n, 1))),
        (
            ((a, (1,)), (m - 1, ()), (-n - 1, ()), (0, (-1,)), (0, (-1,))),
            ((-m * n, (1,)), (-1, (-1,)), (-1, (-1,)), (1, ())),
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
                assert as_fraction(_eval_levels(_two_levels(m, n, a))) == double_sum(m, n, a)
                # the same two levels as the battery above column 3 builds them
                assert as_fraction(eval_multi_pfq(_series_params(m, n, a), 2)) == double_sum(m, n, a)


def _nested_sum_reference(levels):
    """The nested sum term by term: per-level Pochhammer products over m_0 >= m_1 >= ...

    A parameter (const, coeffs) is const plus coeffs[j] times the j-th outer
    index, for each coefficient given. A term whose numerator product vanishes
    contributes nothing, and neither do the later terms of its level or the
    levels inside it. A denominator product that vanishes at a term reached
    from a nonzero one is a ZeroDenominatorFactorError.
    """
    def value(param, outer):
        const, coeffs = param
        return const + sum(coeffs[j] * outer[j] for j in range(len(coeffs)))

    def level_sum(i, outer):
        numerators, denominators = levels[i]
        nums = [value(p, outer) for p in numerators]
        dens = [value(p, outer) for p in denominators]
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
    up to one coefficient in [-1, 1] per outer index (a shorter tuple leaves
    the rest zero). Level 0's first numerator is a constant in [-5, -1], so
    every nested sum terminates."""
    levels = []
    for i in range(draw(st.integers(1, 3))):
        def param():
            coeffs = draw(st.lists(st.integers(-1, 1), min_size=0, max_size=i))
            return draw(st.integers(-6, 4)), tuple(coeffs)

        nums = tuple(param() for _ in range(draw(st.integers(1, 3))))
        if i == 0:
            nums = ((-draw(st.integers(1, 5)), ()),) + nums[1:]
        dens = tuple(param() for _ in range(draw(st.integers(0, 2))))
        levels.append((nums, dens))
    return tuple(levels)


def _outcome(evaluate, levels):
    try:
        return evaluate(levels)
    except (NonTerminatingSeriesError, ZeroDenominatorFactorError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(small_multi_specs())
# a zero sum, 1 - 1
@example(((_constants((-1, 1)), _constants((1,))),))
# a step whose denominator product is negative: 1 + 1/2 at the top, and a
# negative inner level under it
@example(((_constants((-1, 1)), _constants((-2,))),))
@example(((_constants((-2,)), ()), (((-1, ()), (3, (1,))), ((-2, (0,)),))))
def test_multi_pfq_matches_term_by_term_reference(levels):
    # each value is an integer pair in lowest terms with a positive
    # denominator (as_fraction checks) and equals the reference's Fraction
    exact = _outcome(lambda levels: as_fraction(_eval_levels(levels)), levels)
    assert exact == _outcome(_nested_sum_reference, levels)
