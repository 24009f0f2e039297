"""Straight-shape tableau counts by Frobenius's formula, taken in prime
exponents: the ``--verify`` partner of the hook length formula.

With l_i = λ_i + ℓ - i for the ℓ rows of λ (strictly decreasing, the last one
λ_ℓ), Frobenius's formula (Fulton and Harris, *Representation Theory*, (4.11))
is

    f^λ = n! · Π_{i<j} (l_i - l_j) / Π_i l_i!.

Every factor but n! is a product of integers x <= l_1, so f^λ / n! is
Π_x x^{c(x)} with one integer coefficient per x: the number of pairs with
l_i - l_j = x (the Vandermonde product) minus the number of rows with
l_i >= x (the l_i!). The pair counts are one big-integer product: the
l-indicator polynomial times its reverse, packed a few bits a coefficient,
holds at degree l_1 + x the number of pairs at difference x.

Each prime q <= n then has by Legendre's formula the exponent
Σ_j (n // q^j + Σ_{x ≡ 0 mod q^j} c(x)): n! has n // q^j multiples of q^j,
and x holds q once for each power of q that divides it. A negative exponent
means a wrong coefficient; it raises ``ArithmeticError``. The count is the
balanced product tree of the prime powers (Borwein 1985, *J. Algorithms* 6),
so no big integer is ever divided.

The route shares no code with the hook length formula: it reads neither hook
lengths nor the conjugate partition, checks its rows itself (whole numbers,
trailing zero rows dropped, the rest at least 1 and weakly decreasing) rather
than through ``shapes.as_partition``, and imports nothing from the package but
its export table, ``_EXPORTS``, its balanced product, ``_product``, and its
prime sieve, ``_primes``, neither of which the hook length formula calls. It
is also the faster of the two at scale: in process, ``(200,) * 200`` takes
0.03 s against 0.23 s, and ``(1,) * 100000`` 0.33-0.34 s against 0.40-0.41 s
(best of 3, CPython 3.11.7, 2-vCPU VM).
"""

from . import _EXPORTS, _primes, _product

__all__ = list(_EXPORTS["frobenius"])


def _difference_counts(l: list[int]) -> list[int]:
    """Item x of the result (1 <= x <= l[0]) is the number of pairs i < j with
    ``l[i] - l[j] == x``, for strictly decreasing non-negative ``l``.

    The indicator Σ_i X^{l_i} times its reverse Σ_j X^{l_0 - l_j} has
    coefficient #{(i, j) : l_i - l_j = x} at degree l_0 + x. With X = 2**bits,
    bits = len(l).bit_length(), no coefficient (at most len(l)) carries into
    the next, so one big-integer product computes them all.
    """
    top = l[0]
    bits = len(l).bit_length()
    forward = bytearray(((top + 1) * bits + 7) >> 3)
    backward = bytearray(len(forward))
    for value in l:
        at = value * bits
        forward[at >> 3] |= 1 << (at & 7)
        at = (top - value) * bits
        backward[at >> 3] |= 1 << (at & 7)
    product = int.from_bytes(forward, "little") * int.from_bytes(backward, "little")
    # degrees top and up: the differences 0 .. top, read field by field from the bytes
    packed = (product >> top * bits).to_bytes(len(forward), "little")
    mask = (1 << bits) - 1
    return [int.from_bytes(packed[at >> 3:(at + bits + 7) >> 3], "little") >> (at & 7) & mask
            for at in range(0, (top + 1) * bits, bits)]


def syt_count_frobenius(p: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the straight shape ``p`` (a
    weakly decreasing tuple of positive row lengths; trailing zero rows are
    dropped), by Frobenius's formula in prime exponents.

    Raises ``ValueError`` for rows that are not whole numbers, not at least 1
    or not weakly decreasing (``3.0`` reads as 3), ``OverflowError`` for a
    shape of more cells than machine size, before any table is built, and
    ``ArithmeticError`` for a negative prime exponent.
    """
    # whole-tuple passes, so a long shape pays no Python loop per row; only a refusal finds its row
    given = tuple(p)
    p = tuple(map(int, given))
    if p != given:
        raise ValueError(f"expected an integer, got {next(x for x, y in zip(given, p) if x != y)!r}")
    # trailing zero rows are no rows, as ``shapes.as_partition`` reads them
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    p = p[:end]
    if not p:
        return 1
    if p != tuple(sorted(p, reverse=True)):
        i = next(i for i in range(1, len(p)) if p[i - 1] < p[i])
        raise ValueError(f"row lengths must be weakly decreasing, got {p[i - 1]} before {p[i]}")
    if p[-1] < 1:
        raise ValueError(f"row lengths must be positive, got {p[-1]} at row {len(p)}")
    rows = len(p)
    n = sum(p)
    primes = _primes(n)  # first, so a size past machine size overflows before any other table
    l = [row + rows - 1 - i for i, row in enumerate(p)]  # l[0] <= n
    coeff = _difference_counts(l)
    # Π l_i!: x is a factor of the rows with l_i >= x, a run of rows from the first
    for i, value in enumerate(l):
        for x in range(l[i + 1] + 1 if i + 1 < rows else 1, value + 1):
            coeff[x] -= i + 1
    powers = []
    for q in primes:
        # Legendre's formula: q^j divides n // q^j factors of n! and every x in coeff[q^j::q^j]
        e, power = 0, q
        while power <= n:
            e += n // power + sum(coeff[power::power])
            power *= q
        if e < 0:
            raise ArithmeticError(f"prime {q} has exponent {e}")
        if e:
            powers.append(q ** e)
    return _product(powers)
