from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from battery_syt.arith import Factorization, binomial, factorial, factorize, is_prime, pochhammer
from battery_syt.arith import _brent_rho


def test_pochhammer_known_values():
    assert pochhammer(5, 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(-2, 3) == 0
    assert pochhammer(1, 5) == 120
    assert pochhammer(-5, 5) == -120


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        pochhammer(3, -1)


def test_pochhammer_recurrence():
    for x in range(-10, 11):
        for n in range(0, 11):
            assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)


def test_pochhammer_difference_identity():
    # (t)_n - (t-1)_n == n * (t)_{n-1}
    for t in range(1, 11):
        for n in range(1, 11):
            assert pochhammer(t, n) - pochhammer(t - 1, n) == n * pochhammer(t, n - 1)


def test_pochhammer_sum_identity():
    # (a)_n == n * sum((t)_{n-1} for t in 1..a)
    for a in range(1, 9):
        for n in range(1, 9):
            assert pochhammer(a, n) == n * sum(pochhammer(t, n - 1) for t in range(1, a + 1))


def test_binomial_known_values():
    assert binomial(5, 2) == 10
    assert binomial(-3, 2) == 6
    assert binomial(4, 0) == 1
    assert binomial(2, 5) == 0
    assert binomial(-1, 3) == -1


def test_binomial_matches_comb_on_classical_range():
    for x in range(0, 12):
        for k in range(0, 12):
            assert binomial(x, k) == comb(x, k)


def test_binomial_negation_identity():
    # C(-z+n-1, n) == (-1)^n C(z, n)
    for z in range(-8, 9):
        for n in range(0, 9):
            assert binomial(-z + n - 1, n) == (-1) ** n * binomial(z, n)


def test_binomial_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        binomial(4, -1)


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(6) == 720
    assert factorial(10) == 3628800


def _trial_division_is_prime(n):
    # independent slow reference: wheel trial division up to sqrt(n)
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    f = 5
    while f <= isqrt(n):
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def test_factorize_known_values():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)


def test_factorize_large_prime_confirmed_by_trial_division():
    n = 2839893182041
    assert factorize(n).factors == ((n, 1),)
    assert _trial_division_is_prime(n)


def test_factorize_round_trip_small_range():
    for n in range(1, 10001):
        fac = factorize(n)
        assert fac.value() == n
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(set(primes))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_splits_two_large_primes():
    p, q = 3361178017, 2839893182041
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_brent_rho_fallback_branches():
    # trial division strips small factors before rho runs, so only direct calls
    # reach these: 55 overshoots the batched gcd and backtracks; 25 backtracks
    # onto the whole cycle too and retries with the next polynomial constant
    for n in (55, 25):
        d = _brent_rho(n)
        assert 1 < d < n and n % d == 0


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == _trial_division_is_prime(n)


def test_factorization_str_format():
    assert str(factorize(12)) == "2^2*3"
    assert str(factorize(1)) == "1"
    assert str(factorize(30)) == "2*3*5"
    assert str(factorize(2 ** 5 * 41)) == "2^5*41"


def test_factorization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # zero exponent


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorize_round_trip_random(n):
    fac = factorize(n)
    assert fac.value() == n
    assert all(is_prime(p) for p, _ in fac.factors)


@given(
    st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
    st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
)
def test_rationals_stay_in_lowest_terms(p, q, r, s):
    x, y = Fraction(p, q), Fraction(r, s)
    for value in (x + y, x - y, x * y, x / y if r else x):
        assert gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0
    assert Fraction(0, 7) == Fraction(0, 1)
