"""Exact integer primitives: rising factorials, generalized binomials, prime factorization.

Everything here is plain arbitrary-precision ``int`` arithmetic; rationals
elsewhere in the package are ``fractions.Fraction``, which keeps values
normalized to lowest terms with a positive denominator after every operation.

``Record`` is the immutable value base of every record type in the package
(factorizations, series parameters, shapes, catalog cases, tableaux, CLI
reports). It lives here because every other module already imports this one,
and it is used in place of ``dataclasses``, whose import (which pulls in
``inspect``) and per-class code generation would cost every CLI call about
25 ms.
"""

from math import factorial, gcd

__all__ = [
    "pochhammer",
    "binomial",
    "factorial",
    "is_prime",
    "factorize",
    "Factorization",
]

# Trial division handles factors below this; larger cofactors go to Pollard rho.
_TRIAL_BOUND = 1_000_000

# Witness set is exact for every n < 3.3 * 10**24. Above that a factor that
# passes is not proven prime; ROADMAP item 3 plans BPSW and a probable-prime
# label for such factors.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def pochhammer(x: int, n: int) -> int:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError(f"pochhammer order must be non-negative, got {n}")
    result = 1
    for i in range(n):
        result *= x + i
    return result


def binomial(x: int, k: int) -> int:
    """Binomial coefficient x over k for any integer x, via the falling factorial.

    Negative upper arguments are meaningful here: binomial(-3, 2) == 6, and
    binomial(-z + n - 1, n) == (-1)**n * binomial(z, n) for all integers z.
    """
    if k < 0:
        raise ValueError(f"binomial lower index must be non-negative, got {k}")
    num = 1
    for i in range(k):
        num *= x - i
    # a product of k consecutive integers is always divisible by k!
    return num // factorial(k)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test with a fixed witness set."""
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
    return True


class Record:
    """Immutable value whose fields are its class's ``__slots__``, in order.

    Equality (same class only), hashing and the ``Name(field=value, ...)``
    repr go by the field values, as for a frozen dataclass; assignment and
    deletion raise ``AttributeError``. ``__reduce__`` rebuilds an instance
    through its constructor, so a subclass's ``__init__`` takes the fields
    positionally in slot order and stores them with ``_set``. A record class
    is not subclassed to add fields.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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
        result = 1
        for prime, exponent in self.factors:
            result *= prime ** exponent
        return result

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )


def _brent_rho(n: int) -> int:
    """Return a non-trivial factor of odd composite n (Brent's cycle variant).

    Fixed starting values with an incrementing polynomial constant keep the
    search deterministic across runs.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g != n:
            return g
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # degenerate cycle; retry with the next polynomial


def factorize(n: int) -> Factorization:
    """Factor a positive integer into primes.

    Small factors come off by trial division (2, 3, then a 6k+-1 wheel);
    any remaining cofactor is split by Pollard rho with Miller-Rabin
    certification of each reported prime.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    counts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f < _TRIAL_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
        f += 6
    if 1 < n and f * f > n:
        # trial division already proved the cofactor prime
        counts[n] = counts.get(n, 0) + 1
        n = 1
    pending = [n] if n > 1 else []
    while pending:
        v = pending.pop()
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        pending.append(d)
        pending.append(v // d)
    return Factorization(tuple(sorted(counts.items())))
