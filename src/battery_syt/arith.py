"""The factoring module: prime factorization and primality. No counting route
imports it, so it loads only for factored and JSON output.

``factorize`` trial-divides while it keeps finding primes: a battery count's
small primes come from its hook-length factorials and end near the size of
the shape, so past 2**11 trial division stops at the end of the first octave
[2**j, 2**(j+1)) that divides nothing. What is left is taken apart by an
integer root when it is a perfect power, and otherwise by Brent's rho, then
(once, if rho's first slice of the work budget did not split it) Pollard's
p-1 stage 1, then rho again. ``is_prime`` (Miller-Rabin, exact below
3.3 * 10**24, BPSW above) proves each prime that trial division did not
divide out, once.

The work past trial division is bounded by one fixed budget counted in
modular multiplications, each weighted by its modulus's size in 64-bit
words, never in clock time, so a count meets the same outcome on every
machine. When it runs out, ``factorize`` raises ``FactorizationBudgetError``
with the primes it proved and the cofactors it could not take apart.
"""

from functools import cache
from math import gcd, isqrt, log10, log2

from . import _EXPORTS, Record, _integral, _primes, _product

__all__ = list(_EXPORTS["arith"])

# Trial division tries every prime below _OCTAVE_START, then goes on one
# octave [2**j, 2**(j+1)) at a time while the octave before it divided n, and
# never past _TRIAL_BOUND; Pollard rho splits the cofactor. A fixed bound
# would either run the wheel to 10**6, finding nothing on most counts, or,
# set low, leave every prime just above it to a rho split plus a primality
# test of the whole cofactor (the 9,720-digit [(80^80),2,2] count has primes
# up to 6,473).
_OCTAVE_START = 1 << 11
_TRIAL_BOUND = 1_000_000

# The primes 2..41 as Miller-Rabin bases are exact below _PSI13, the least
# strong pseudoprime to all of them (2..37 are not: 318665857834031151167461
# passes every one). From _PSI13 on, is_prime adds a strong Lucas test, which
# with the base-2 test makes BPSW: no composite is known to pass it, but none
# is proven not to.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981

# The work one factorize call may do past trial division, in modular
# multiplications each weighted by its modulus's size in 64-bit words; spent
# on rho alone, it lasts 0.85 s on a 50-digit cofactor (2-vCPU VM).
_BUDGET = 1 << 22
# Rho's first slice on each composite cofactor, before p-1 runs once. The
# costliest rho split of a pinned factorization, PSI12 = 399165290221 *
# 798330580441, takes 61% of it.
_RHO_SLICE = _BUDGET // 2
# Pollard's p-1 stage 1 bound: it splits off a prime p whose p - 1 has no
# prime-power factor above it.
_PM1_BOUND = 120_000
# is_prime's full test of a b-bit n costs about b modular multiplications per
# Miller-Rabin base and 4b for the strong Lucas test; factorize charges it
# before the test on every cofactor from _PSI13 on.
_PRIME_TEST_MULTS = len(_MR_BASES) + 4


def is_prime(n: int) -> bool:
    """Primality test: exact below 3.3 * 10**24, Baillie-PSW from there on.

    Miller-Rabin with the primes 2..41 as bases decides every n below
    ``_PSI13``; larger n must also pass a strong Lucas test. ``n`` is read
    through ``_integral``.
    """
    n = _integral(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI13 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test (Baillie-Wagstaff 1980) of odd n > 41.

    Parameters by Selfridge's method A: D is the first of 5, -7, 9, -11, ...
    with Jacobi symbol (D/n) = -1, P = 1 and Q = (1 - D) / 4. A square has no
    such D, so it is rejected first. With n + 1 = d * 2**s, n passes when
    U_d = 0 or V_{d * 2**r} = 0 (mod n) for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q**k mod n, from k = 0 up the bits of d: k -> 2k, then
    # 2k -> 2k + 1 by U' = (U + V) / 2 and V' = (D*U + V) / 2 (n is odd)
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U % 2 else U) // 2
            V = (V + n if V % 2 else V) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Factorization(Record):
    """Prime factorization as (prime, exponent) pairs with strictly ascending primes."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        self._set(factors)
        previous = 1
        for prime, exponent in self.factors:
            if prime <= previous:
                raise ValueError(f"primes must be strictly ascending, got {prime} after {previous}")
            if exponent < 1:
                raise ValueError(f"exponent must be positive, got {prime}^{exponent}")
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            previous = prime

    def value(self) -> int:
        """Reconstruct the factored integer."""
        return _product([prime ** exponent for prime, exponent in self.factors])

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )


class FactorizationBudgetError(ArithmeticError):
    """``factorize`` spent its work budget before every factor was proven prime.

    ``factors`` is the ``Factorization`` of the primes it proved;
    ``composites`` and ``untested`` are the (cofactor, exponent) pairs it left,
    each proven composite or, when the budget could not pay for its primality
    test, untested. The three multiply back to the number factored.
    """

    def __init__(self, factors: Factorization, composites, untested) -> None:
        self.factors, self.composites, self.untested = factors, tuple(composites), tuple(untested)
        parts = [str(factors)] if factors.factors else []
        for label, leftovers in (("a composite", self.composites), ("an untested cofactor", self.untested)):
            parts += [f"{label} of {_digits(c)} digits" + (f" to the power {e}" if e > 1 else "")
                      for c, e in leftovers]
        super().__init__("factorization over budget: " + " times ".join(parts))


def _digits(n: int) -> int:
    """Decimal digits of n >= 1, without ``str``, which refuses more than
    4300 digits unless the caller lifts the limit."""
    digits = int((n.bit_length() - 1) * log10(2)) + 1
    return digits + (n >= 10 ** digits)


class _Budget:
    """The work one ``factorize`` call has spent past trial division, in
    modular multiplications each weighted by its modulus's size in 64-bit
    words."""

    __slots__ = ("spent",)

    def __init__(self) -> None:
        self.spent = 0

    def charge(self, mults: int, n: int) -> None:
        self.spent += mults * -(-n.bit_length() // 64)

    def afford(self, mults: int, n: int) -> bool:
        """Charge ``mults`` multiplications modulo n if what is left of the
        budget pays for them, and say whether it did."""
        if self.spent + mults * -(-n.bit_length() // 64) > _BUDGET:
            return False
        self.charge(mults, n)
        return True


def _brent_rho(n: int):
    """Search for a non-trivial factor of odd composite n (Brent's cycle
    variant of Pollard's rho).

    A generator: it yields the modular multiplications of each batch of at
    most 128 steps, so that its caller can charge them and stop it between
    batches, and returns the factor. Fixed starting values with an
    incrementing polynomial constant keep the search deterministic across
    runs.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for k in range(0, r, 128):
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                yield steps
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
                yield 2 * steps
            r <<= 1
        if g != n:
            return g
        steps, g = 0, 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            steps += 1
        yield steps
        if g != n:
            return g
        c += 1  # degenerate cycle; retry with the next polynomial


@cache
def _pm1_exponent() -> tuple[int, int]:
    """(E, charge) of Pollard's p-1, built once per process. E is
    lcm(1, ..., ``_PM1_BOUND``), the product of the largest power q of each
    prime at most the bound. A run is charged for 2**E mod n what binary
    powering by each q in turn costs, q + w - 2 multiplications for a q-bit
    q with w one bits: more than ``pow`` spends on E itself."""
    powers = []
    for p in _primes(_PM1_BOUND):
        q = p
        while q * p <= _PM1_BOUND:
            q *= p
        powers.append(q)
    charge = sum(q.bit_length() + q.bit_count() - 2 for q in powers)
    return _product(powers), charge


def _pollard_pm1(n: int, budget: _Budget) -> int | None:
    """Pollard's p-1, stage 1 (Pollard 1974): gcd(2**E - 1, n) by one ``pow``
    when it is a non-trivial factor of n; None when it is 1 or n, or when
    what is left of the budget does not pay for the charge."""
    exponent, charge = _pm1_exponent()
    if not budget.afford(charge, n):
        return None
    g = gcd(pow(2, exponent, n) - 1, n)
    return g if 1 < g < n else None


def _split(n: int, budget: _Budget) -> int | None:
    """A factor d of composite n with 1 < d < n, or None once the budget is spent.

    Rho gets a first slice of the budget. If it has not split n by then,
    p-1 runs once; if that finds nothing, rho goes on where it stopped.
    """
    rho = _brent_rho(n)
    slice_end = min(budget.spent + _RHO_SLICE, _BUDGET)
    try:
        while budget.spent < slice_end:
            budget.charge(next(rho), n)
        d = _pollard_pm1(n, budget)
        if d is not None:
            return d
        while budget.spent < _BUDGET:
            budget.charge(next(rho), n)
    except StopIteration as found:
        return found.value
    return None


def _iroot(n: int, e: int) -> int:
    """Floor of the e-th root of n >= 1.

    Newton's method from a float estimate just above the root; the estimate is
    taken of n >> e*shift and scaled back by 2**shift so the float stays finite.
    """
    shift = max(n.bit_length() // e - 960, 0)
    x = int(2 ** (log2(n >> e * shift) / e) * (1 + 1e-9) + 1) << shift
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _power_root(v: int, least: int) -> tuple[int, int]:
    """(r, e) with v == r**e for the first prime e that has one, else (v, 1).

    Every prime factor of v is at least ``least``, so r >= least and only the
    exponents up to log(v) / log(least) are tried.
    """
    for e in _primes(v.bit_length() // (least.bit_length() - 1)):
        root = _iroot(v, e)
        if root ** e == v:
            return root, e
    return v, 1


def factorize(n: int) -> Factorization:
    """Factor a positive integer into primes.

    Small factors come off by trial division: 2, 3, then a 6k+-1 wheel that
    runs to 2**11 and past it an octave [2**j, 2**(j+1)) at a time, stopping
    at the end of the first octave in which no prime divides n, at 10**6,
    or once f*f > n. ``is_prime`` tests each cofactor left, prime or not,
    once. A composite one that is a perfect power r**e is replaced by its
    root, counted e times; any other is split by Pollard rho, with p-1
    stage 1 run once if rho's first slice of the budget fails.

    Raises ``FactorizationBudgetError`` when the work past trial division
    (rho, p-1 and the primality tests of cofactors from ``_PSI13`` on) would
    exceed ``_BUDGET``. ``n`` is read through ``_integral``.
    """
    n = _integral(n)
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    counts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f, octave_end, octave_n = 5, _OCTAVE_START, 0
    while f * f <= n and f < _TRIAL_BOUND:
        if f >= octave_end:
            if n == octave_n:  # no prime in the octave just tried divided n
                break
            octave_end, octave_n = 2 * octave_end, n
        for p in (f, f + 2):
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
        f += 6
    # (cofactor, times it divides n); every prime left is at least f, which
    # bounds the exponents _power_root tries. A perfect power goes on as its
    # root, since rho would take about sqrt(p) steps to split p off p**e
    budget = _Budget()
    pending = [(n, 1)] if n > 1 else []  # not tested yet
    composites = []  # proven composite, not split yet
    while pending or composites:
        if not pending:
            v, times = composites[-1]
            d = _split(v, budget)
            if d is None:
                raise _over_budget(counts, composites, ())
            composites.pop()
            pending += [(d, times), (v // d, times)]
            continue
        v, times = pending.pop()
        if v in counts:  # a prime proven already, split off another cofactor
            counts[v] += times
            continue
        if v >= _PSI13 and not budget.afford(_PRIME_TEST_MULTS * v.bit_length(), v):
            raise _over_budget(counts, composites, pending + [(v, times)])
        if is_prime(v):
            counts[v] = counts.get(v, 0) + times
            continue
        root, e = _power_root(v, f)
        if e > 1:
            pending.append((root, times * e))
        else:
            composites.append((v, times))
    return _proven(counts)


def _proven(counts: dict[int, int]) -> Factorization:
    """The ``Factorization`` of primes ``factorize`` has proven, by trial
    division or ``is_prime``, built without testing each one again."""
    result = object.__new__(Factorization)
    result._set(tuple(sorted(counts.items())))
    return result


def _over_budget(counts, composites, untested) -> FactorizationBudgetError:
    return FactorizationBudgetError(_proven(counts), sorted(composites), sorted(untested))
