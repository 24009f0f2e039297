from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from battery_syt import arith
from battery_syt.arith import Factorization, FactorizationBudgetError, factorize, is_prime
from battery_syt.arith import _brent_rho, _is_strong_lucas_prp, _split
from battery_syt.counting import count_hyper

try:
    import sympy
except ImportError:  # sympy is an optional cross-check
    sympy = None

# The least strong pseudoprimes to all the prime bases 2..37 and 2..41.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
# The 19- and 32-digit primes left in the [(20^20),5,6] count once p-1 has
# split off its 18-digit prime: rho would need billions of steps, and p - 1
# has a 12-digit prime factor for P19 and a 22-digit one for P32
P19, P32 = 7861398396751765951, 10612701531967838679465676699543


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


PRIMES_BELOW_10_6 = _primes_below(10 ** 6)


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


@pytest.mark.parametrize("read", [factorize, is_prime])
def test_factorize_and_is_prime_read_a_whole_number_and_refuse_a_fraction(read):
    # factorize(12.5) printed 12.5, a primality claim, and is_prime(7.5) was a TypeError from pow
    for value in (3.5, 7.5, 12.5):
        with pytest.raises(ValueError, match=f"^expected an integer, got {value}$"):
            read(value)
    assert read(7.0) == read(7)
    assert str(factorize(7.0)) == "7"


def test_factorize_splits_two_large_primes():
    p, q = 3361178017, 2839893182041
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_stops_trial_division_where_the_small_primes_end(monkeypatch):
    # the smooth part fills every octave up to [2**13, 2**14), so trial
    # division runs through [2**14, 2**15), finds nothing and leaves the
    # two large primes, and nothing else, to rho; with nothing in
    # [2**11, 2**12) it stops at 2**12 and leaves 5003 to rho too
    small = [p for p in PRIMES_BELOW_10_6 if p < 10_000]
    large = [3361178017, 2839893182041]
    split = []
    monkeypatch.setattr(arith, "_brent_rho", lambda n: split.append(n) or _brent_rho(n))
    assert factorize(prod(small) * prod(large)).factors == tuple((p, 1) for p in small + large)
    assert split == [prod(large)]
    split.clear()
    assert factorize(3 * 5003 * large[1]).factors == ((3, 1), (5003, 1), (large[1], 1))
    assert split == [5003 * large[1]]


def test_factorize_proves_each_leftover_prime_once_by_is_prime(monkeypatch):
    # is_prime, looked up as a module global, proves each prime cofactor that
    # trial division left once, and the result does not test it again; 1009
    # and 10000019 are below f*f when trial division ends, the second only
    # in the first octave past 2**11 (its square root is 3162), and
    # 2839893182041 is left at the octave stop
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for p in (1009, 10000019, 2839893182041):
        calls.clear()
        assert factorize(2 ** 40 * p).factors == ((2, 40), (p, 1))
        assert calls == [p]


_SMALL_OR_MIDDLE_PRIME_POWERS = st.tuples(
    st.sampled_from([p for p in PRIMES_BELOW_10_6 if p < 2 ** 11])
    | st.sampled_from([p for p in PRIMES_BELOW_10_6 if p >= 2 ** 11]),
    st.integers(1, 3),
)


@settings(deadline=None)
@given(
    st.lists(_SMALL_OR_MIDDLE_PRIME_POWERS, max_size=8),
    st.none() | st.tuples(st.integers(10 ** 6, 10 ** 13), st.integers(1, 3)),
)
def test_factorize_round_trip_over_three_bands(powers, top):
    # primes below 2**11, in [2**11, 10**6] and in [10**6, 10**13]; one prime
    # of the top band, since rho takes about sqrt(p) steps to split off a
    # prime p, seconds near 10**13 (ROADMAP item 3); its square or cube is
    # taken apart by an integer root instead
    expected = Counter()
    for p, e in powers:
        expected[p] += e
    if top is not None:
        p, e = top
        while not is_prime(p):  # exact there: Miller-Rabin bases 2..41
            p += 1
        expected[p] += e
    n = prod(p ** e for p, e in expected.items())
    assert factorize(n).factors == tuple(sorted(expected.items()))


def test_factorize_takes_a_power_of_large_primes_apart_without_rho(monkeypatch):
    # rho would take about sqrt(p) steps for each p; a power r**e of primes
    # past the trial-division stop is replaced by its root r before rho runs,
    # and only a root with two distinct primes, p*q here, is left to rho
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    split = []
    monkeypatch.setattr(arith, "_brent_rho", lambda n: split.append(n) or _brent_rho(n))
    for n, factors, rho_calls in (
        (p ** 2, ((p, 2),), []),
        (p ** 3, ((p, 3),), []),
        (p ** 6, ((p, 6),), []),
        ((10 ** 11 + 3) ** 2, ((10 ** 11 + 3, 2),), []),
        (p ** 2 * q ** 2, ((p, 2), (q, 2)), [p * q]),
    ):
        split.clear()
        assert factorize(n).factors == factors
        assert split == rho_calls


def _spent_on(monkeypatch, n):
    """factorize(n) and the share of the work budget it spent."""
    budgets, make = [], arith._Budget
    monkeypatch.setattr(arith, "_Budget", lambda: budgets.append(make()) or budgets[-1])
    factors = factorize(n)
    return factors, budgets[0].spent / arith._BUDGET


def test_pinned_factorizations_spend_at_most_half_the_budget(monkeypatch):
    # PSI12 is the costliest rho split of a pinned factorization; the
    # flagships' large primes are the pair 3361178017 * 2839893182041
    pair = 3361178017 * 2839893182041
    for n, factors in (
        (PSI12, ((399165290221, 1), (798330580441, 1))),
        (pair, ((3361178017, 1), (2839893182041, 1))),
        (count_hyper(11, 7, 1, 6), None),
        (count_hyper(7, 11, 1, 4), None),
        (count_hyper(14, 14, 3, 6), None),
    ):
        result, spent = _spent_on(monkeypatch, n)
        assert result.value() == n
        assert factors is None or result.factors == factors
        assert spent <= 0.5, (n, spent)


def test_factorize_refuses_a_product_of_two_primes_past_its_budget():
    with pytest.raises(FactorizationBudgetError) as refused:
        factorize(P19 * P32)
    exc = refused.value
    assert (exc.factors, exc.composites, exc.untested) == (Factorization(()), ((P19 * P32, 1),), ())
    assert str(exc) == "factorization over budget: a composite of 50 digits"
    assert isinstance(exc, ArithmeticError)


def test_p_minus_1_splits_off_a_prime_rho_cannot_reach(monkeypatch):
    # p - 1 = 2^2 * 3 * 11 * seven primes near 10**5, all below the p-1 bound;
    # P32 - 1 has a 22-digit prime factor, so the gcd is p alone; rho would
    # need about 10**16 steps for either prime
    p = 132 * prod((100003, 100019, 100043, 100049, 100057, 100069, 100103)) + 1
    assert is_prime(p) and is_prime(P32)
    assert max(q for q, _ in factorize(p - 1).factors) <= arith._PM1_BOUND
    found, pm1 = [], arith._pollard_pm1
    monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: found.append(pm1(n, budget)) or found[-1])
    assert factorize(p * P32).factors == ((P32, 1), (p, 1))
    assert found == [p]
    # without p-1, rho alone runs out of budget
    monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: None)
    with pytest.raises(FactorizationBudgetError) as refused:
        factorize(p * P32)
    assert refused.value.composites == ((p * P32, 1),)


def test_the_p_minus_1_exponent_is_the_product_of_the_prime_powers():
    # the largest power of each prime at most the bound, one by one
    powers = []
    for p in PRIMES_BELOW_10_6:
        if p > arith._PM1_BOUND:
            break
        q = p
        while q * p <= arith._PM1_BOUND:
            q *= p
        powers.append(q)
    exponent, charge = arith._pm1_exponent()
    assert exponent == prod(powers)
    assert charge == sum(q.bit_length() + q.bit_count() - 2 for q in powers) == 254_652
    # one pow by the product is the per-power loop's value
    n, a = P19 * P32, 2
    for q in powers:
        a = pow(a, q, n)
    assert pow(2, exponent, n) == a


def test_p_minus_1_takes_one_pow_a_run_and_one_sieve_a_process(monkeypatch):
    p = 132 * prod((100003, 100019, 100043, 100049, 100057, 100069, 100103)) + 1
    sieves, pows, primes = [], [], arith._primes
    monkeypatch.setattr(arith, "_primes", lambda limit: sieves.append(limit) or primes(limit))
    # a module global shadows the builtin the p-1 code calls
    monkeypatch.setattr(arith, "pow", lambda *args: pows.append(args) or pow(*args), raising=False)
    arith._pm1_exponent.cache_clear()
    for run in (1, 2):
        budget = arith._Budget()
        assert arith._pollard_pm1(p * P32, budget) == p
        assert budget.spent == 254_652 * -(-(p * P32).bit_length() // 64)
        assert (len(sieves), len(pows)) == (1, run)


def test_factorize_proves_each_prime_once(monkeypatch):
    # 2 and 1009 come off by trial division, 10007, 10009 and 10037 by rho,
    # the 38-digit p by p-1, and P32 is what p-1 leaves; rho splits 10009 off
    # two cofactors, and the second time it is known prime. Neither the
    # result nor the refusal tests a prime again
    p = 132 * prod((100003, 100019, 100043, 100049, 100057, 100069, 100103)) + 1
    n = 2 ** 3 * 1009 ** 2 * 10007 * 10009 ** 2 * 10037 * p * P32
    tested, found, pm1 = [], [], arith._pollard_pm1
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: found.append(pm1(n, budget)) or found[-1])
    result = factorize(n)
    assert result.factors == ((2, 3), (1009, 2), (10007, 1), (10009, 2), (10037, 1), (P32, 1), (p, 1))
    assert found == [p]
    primes = [v for v in tested if v in dict(result.factors)]
    assert sorted(primes) == [10007, 10009, 10037, P32, p]
    assert len(set(tested)) == len(tested)
    assert result == Factorization(result.factors)  # what a caller builds is tested
    # over budget, the proven primes are not tested again either
    tested.clear()
    with pytest.raises(FactorizationBudgetError) as refused:
        factorize(10009 * 10037 * P19 * P32)
    assert refused.value.factors.factors == ((10009, 1), (10037, 1))
    assert sorted(v for v in tested if v < P19) == [10009, 10037]


def test_the_budget_pays_for_primality_tests_of_large_cofactors(monkeypatch):
    # the Mersenne prime 2**21701 - 1 has 6,533 digits: its full test would
    # cost far more than the budget, so it is refused untested, and the
    # message counts its digits without str(), past the 4300-digit limit
    mersenne = 2 ** 21701 - 1
    tested = []
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    with pytest.raises(FactorizationBudgetError) as refused:
        factorize(mersenne)
    assert (refused.value.composites, refused.value.untested) == ((), ((mersenne, 1),))
    assert str(refused.value) == "factorization over budget: an untested cofactor of 6533 digits"
    assert tested == []


def test_digits_counts_decimal_digits():
    for n in (1, 9, 10, 99, 100, 2 ** 64, 10 ** 50 - 1, 10 ** 50, 10 ** 50 + 1, 3 ** 2000):
        assert arith._digits(n) == len(str(n)), n


def test_iroot_is_the_floor_of_the_root():
    for e in (2, 3, 5, 7, 97):
        for x in (1, 2, 3, 4097, 10 ** 9 + 7, 3 ** 700):
            assert arith._iroot(x ** e, e) == x
            assert arith._iroot(x ** e + 1, e) == x
            if x > 1:
                assert arith._iroot(x ** e - 1, e) == x - 1


def test_brent_rho_fallback_branches():
    # trial division strips small factors before rho runs, so only direct calls
    # reach these: 55 overshoots the batched gcd and backtracks; 25 backtracks
    # onto the whole cycle too and retries with the next polynomial constant
    for n in (55, 25):
        d = _split(n, arith._Budget())
        assert 1 < d < n and n % d == 0


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == _trial_division_is_prime(n)


def test_strong_pseudoprimes_to_the_first_prime_bases_are_composite():
    # PSI12 passes Miller-Rabin to every base 2..37 and PSI13 to every base
    # 2..41; base 41 rejects PSI12, the strong Lucas test rejects PSI13
    assert not is_prime(PSI12)
    assert not is_prime(PSI13)
    assert factorize(PSI12).factors == ((399165290221, 1), (798330580441, 1))
    for psi in (PSI12, PSI13):
        with pytest.raises(ValueError):
            Factorization(((psi, 1),))


def test_strong_lucas_test_passes_primes_and_its_known_pseudoprimes():
    # the odd composites below 30000 that pass are the strong Lucas
    # pseudoprimes with Selfridge's parameters (OEIS A217255)
    passed = [n for n in range(43, 30000, 2) if _is_strong_lucas_prp(n)]
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert passed == sorted([p for p in PRIMES_BELOW_10_6 if 43 <= p < 30000] + pseudoprimes)


def test_strong_lucas_test_rejects_a_square_before_choosing_parameters(monkeypatch):
    # no D has (D/p**2) = -1, so without the square check the search for D
    # would run until |D| reaches p
    def no_search(a, n):
        raise AssertionError(f"searched for D on a square, tried {a}")

    monkeypatch.setattr(arith, "_jacobi", no_search)
    assert not _is_strong_lucas_prp(2839893182041 ** 2)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(deadline=None)
@given(st.integers(PSI13, 10 ** 40), st.integers(2, 10 ** 20), st.integers(2, 10 ** 20))
def test_is_prime_matches_sympy_from_psi13_on(n, x, y):
    p, q, r = sympy.nextprime(n), sympy.nextprime(x), sympy.nextprime(y)
    for v in (n, p, q * r, p * q):
        assert is_prime(v) == sympy.isprime(v), v


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
