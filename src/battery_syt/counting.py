"""Counters for standard Young tableaux of battery shapes over rectangles.

Three routes to the same number, kept deliberately independent so they can
check each other:

* ``count_hyper``: the rectangle tableau count times an exact terminating
  nested hypergeometric sum, for every column 1 <= k <= m; one rule generates
  the k-1 levels of column k;
* ``count_general``: the pivot decomposition, summed in closed form. Every
  tableau splits at the pivot cell into a small top-left subtableau (its
  bullet profile has at most r = k-1 columns), a rotated complement
  subtableau, and a binomial interleaving factor. By the hook length formula
  both subtableau counts are products over the profile's shifted column
  heights, and Heine's identity turns the sum over all profiles into one
  r-by-r Hankel determinant of moments, a polynomial in a marking variable y.
  It is evaluated at rn+1 integers by fraction-free elimination and
  interpolated exactly, so the work is polynomial in m, n and k rather than
  the C(n+k-1, k-1) profiles the sum has;
* the closed-form catalog: multiplicative formulas, over the rectangle count,
  for families with the column and one more coordinate fixed at small values;
  a case's id names the coordinates it fixes.

Counts are integers by construction; a non-integer intermediate or an inexact
division aborts loudly since it can only mean a wrong parameter table. The
series engine (``hypergeom``, and with it ``fractions``) is imported on the
first hyper count; the other routes, the closed forms included, divide
integers and never load it. Binomials and rising factorials are ``math.comb``
and ``math.perm``, so no route loads the factoring module.
"""

from itertools import accumulate, repeat
from math import comb as binomial  # every binomial here; a binding that span tracing rebinds
from math import factorial, perm, prod
from operator import mul

from . import _EXPORTS, Record, _lazy
from .shapes import (
    rotated_complement,  # noqa: F401  (kept as a module binding that span tracing rebinds)
    syt_count_straight,
)

# the series engine, imported on the first hyper count
eval_multi_pfq = _lazy("hypergeom", "eval_multi_pfq")
eval_pfq = _lazy("hypergeom", "eval_pfq")  # a module binding that span tracing rebinds

__all__ = list(_EXPORTS["counting"])


class NonIntegerCountError(ArithmeticError):
    """A tableau count materialized with a non-unit denominator."""


def _exact(num: int, den: int, context: str) -> int:
    quotient, rem = divmod(num, den)
    if rem:
        raise NonIntegerCountError(f"inexact division in {context}")
    return quotient


def rect_syt_count(m: int, n: int) -> int:
    """Number of standard Young tableaux of the m-by-n rectangle."""
    return syt_count_straight((m,) * n)


def _check_rect_args(m: int, n: int, a: int, k: int):
    """The battery rule: a column 1 <= k <= m of an m-by-n rectangle, n >= 1, a >= 0."""
    if k < 1:
        raise ValueError(f"column index must be at least 1, got k={k}")
    if m < k:
        raise ValueError(f"column {k} battery needs base width m >= {k}, got m={m}")
    if n < 1:
        raise ValueError(f"need at least one row, got n={n}")
    if a < 0:
        raise ValueError(f"battery length must be non-negative, got a={a}")


def _levels(m: int, n: int, a: int, k: int) -> tuple["PFQLevel", ...]:
    """Nested-sum parameters for the battery above column k, one level per column left of it.

    Level i sums over x_i; its parameters are affine in the outer indices
    x_0..x_{i-1}, and the coefficient on x_j sits at position j. Column 1 has
    no levels; column 2 has the single level 3F2(a, m, -n; 1, -mn; 1).
    """
    from .hypergeom import AffineParam, PFQLevel

    levels = []
    for i in range(k - 1):
        sum_x = (1,) * i
        outer = [(j, (0,) * j + (-1,)) for j in range(i)]
        levels.append(PFQLevel(
            numerators=(AffineParam(a, sum_x), AffineParam(m - i), AffineParam(-n - i))
            + tuple(AffineParam(-(i - 1 - j), x_j) for j, x_j in outer for _ in range(2)),
            denominators=(AffineParam(-m * n, sum_x),)
            + tuple(AffineParam(-(i - j), x_j) for j, x_j in outer for _ in range(2))
            + (AffineParam(1),),
        ))
    return tuple(levels)


def count_hyper(m: int, n: int, a: int, k: int) -> int:
    """Count for the battery above column 1 <= k <= m of an m-by-n rectangle:
    the rectangle count times the (k-1)-level nested sum of ``_levels``."""
    _check_rect_args(m, n, a, k)
    value = eval_multi_pfq(_levels(m, n, a, k))
    return _exact(rect_syt_count(m, n) * value.numerator, value.denominator, f"[({m}^{n}), {a}, {k}]")


# the paper's columns 2..6 as counters of (m, n, a); count_hyper takes any column
COUNT_BY_COLUMN: "dict[int, Callable[[int, int, int], int]]" = {
    k: (lambda m, n, a, k=k: count_hyper(m, n, a, k)) for k in range(2, 7)
}


def _weights(m: int, n: int, k: int) -> list[int]:
    """W(x) = (x+1)_{m-k+1} * C(N, x) at each point x = 0..N, N = n+k-2, that a
    profile's shifted column height can take; W / N! is the per-point factor of
    the two hook length formulas (see ``count_general``)."""
    big = n + k - 2
    return [perm(x + m - k + 1, m - k + 1) * binomial(big, x) for x in range(big + 1)]


def _hankel_det(moments: list[int], r: int, context: str) -> int:
    """det[moments[i+j]] for i, j < r by fraction-free (Bareiss) elimination.

    The matrix is the moment matrix of positive weights on at least r points,
    hence positive definite: no pivot vanishes and none needs a row swap. It
    stays symmetric under elimination, so only the upper triangle is updated.
    """
    rows = [moments[i:i + r] for i in range(r)]
    prev = 1
    for p in range(r - 1):
        top = rows[p]
        pivot = top[p]
        for i in range(p + 1, r):
            row = rows[i]
            lead = top[i]
            for j in range(i, r):
                q, rem = divmod(pivot * row[j] - lead * top[j], prev)
                if rem:
                    raise NonIntegerCountError(f"inexact elimination step in {context}")
                row[j] = q
        prev = pivot
    return rows[-1][-1] if r else 1


def count_general(m: int, n: int, a: int, k: int) -> int:
    """Count for any battery column 1 <= k <= m over an m-by-n rectangle.

    Splits each tableau at the pivot entry: the entries below it fill a
    sub-diagram with at most r = k-1 columns (the bullet profile), the entries
    above fill its rotated complement in the rectangle, and the battery
    entries interleave in binomial(a + s - 1, s) ways, s the profile's size.

    A profile with column heights t_1 >= ... >= t_r maps to the distinct
    points l_i = t_i + r - i of [0, N], N = n+r-1, with s = sum(l) - C(r,2).
    Its two tableau counts multiply to s! (mn-s)! C_fix Delta(l)^2 prod w(l_i),
    w = W / N! (``_weights``) and C_fix = prod_{d<=m-k} d! / prod_{F=n+k-1}^{n+m-1} F!.
    Heine's identity sums Delta(l)^2 prod W(l_i) y^(l_i) over all point sets
    as D(y) = det[mu_{i+j}(y)], mu_p(y) = sum_x x^p W(x) y^x. D(y) / y^C(r,2)
    is an integer polynomial E of degree rn with coefficients e_s, so the count
    is C_fix sum_s e_s (a)_s (mn-s)! / N!^r.
    """
    _check_rect_args(m, n, a, k)
    context = f"[({m}^{n}), {a}, {k}]"
    r = k - 1
    big = n + r - 1
    deg = r * n
    shift = r * (r - 1) // 2
    # the coefficient rows of mu_0 .. mu_{2r-2}: x^p W(x)
    table = [_weights(m, n, k)]
    for _ in range(2 * r - 2):
        table.append(list(map(mul, range(big + 1), table[-1])))
    values = []
    for y in range(1, deg + 2):
        powers = list(accumulate(repeat(y, big), mul, initial=1))
        moments = [sum(map(mul, row, powers)) for row in table]
        values.append(_exact(_hankel_det(moments, r, context), y**shift, context))
    # forward differences at y = 1 give E in the basis (y-1)(y-2)...(y-j);
    # an integer polynomial has its j-th difference divisible by j!
    newton = []
    scale = 1
    for j in range(deg + 1):
        newton.append(_exact(values[0], scale, context))
        values = [hi - lo for lo, hi in zip(values, values[1:])]
        scale *= j + 1
    # Horner in that basis, expanding to monomial coefficients, lowest first
    coeffs = [newton[deg]]
    for j in range(deg - 1, -1, -1):
        coeffs = [hi - (j + 1) * lo for hi, lo in zip([newton[j]] + coeffs, coeffs + [0])]
    # sum_s e_s (a)_s (mn-s)! / (mn-deg)!, nested over s so no (mn-s)! is formed
    cells = m * n
    total = 0
    rising = 1
    for s, e in enumerate(coeffs):
        total = total * (cells - s + 1) + e * rising
        rising *= a + s
    num = total * factorial(cells - deg) * prod(factorial(d) for d in range(1, m - k + 1))
    den = prod(factorial(f) for f in range(n + k - 1, n + m)) * factorial(big) ** r
    return _exact(num, den, context)


class ClosedFormCase(Record):
    """One multiplicative formula from the fixed-parameter catalog.

    The id is the record of the coordinates the case fixes: ``k2-a1`` is the
    battery of length 1 above column 2, ``k2-m3`` column 2 over width 3.
    ``ratio`` takes the other two of m, n, a (``params``, in that order) and
    gives the battery count over the rectangle count as an integer
    (numerator, denominator) pair, which ``closed_form`` divides once.
    """

    __slots__ = ("case_id", "ratio")

    def __init__(self, case_id: str, ratio: "Callable[..., tuple[int, int]]") -> None:
        self._set(case_id, ratio)

    @property
    def fixed(self) -> dict[str, int]:
        return {part[0]: int(part[1:]) for part in self.case_id.split("-")}

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(name for name in "mna" if name not in self.fixed)


def _poly_k2_a3(m, n):
    return (
        m * m * (7 * n * n + 7 * n + 2)
        + m * (-7 * n * n + 9 * n + 6)
        + 2 * (n * n - 3 * n + 2)
    )


def _poly_k3_n3(m, a):
    return (
        a**4 * m * (m + 1) ** 2 * (m + 2)
        + 6 * a**3 * m * (11 * m - 13) * (m + 1) * (m + 2)
        + a**2 * (m + 1) ** 2 * (1559 * m * m - 3722 * m + 2160)
        + 6 * a * (m + 1) * (2521 * m**3 - 8169 * m * m + 8078 * m - 2280)
        + 648 * (3 * m - 1) * (3 * m - 2) * (3 * m - 4) * (3 * m - 5)
    )


def _poly_k4_n2(m, a):
    return (
        a**3 * m * (m - 1) * (m + 1)
        + 3 * a * a * m * (m + 1) * (11 * m - 23)
        + 4 * a * (m + 1) * (95 * m * m - 338 * m + 270)
        + 192 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5)
    )


def _poly_k5_n2(m, a):
    return (
        a**4 * m * (m - 1) * (m + 1) * (m - 2)
        + 2 * a**3 * m * (m + 1) * (m - 1) * (25 * m - 74)
        + a * a * (m + 1) * m * (m - 2) * (971 * m - 3131)
        + 2 * a * (m + 1) * (4361 * m**3 - 29979 * m * m + 63418 * m - 40320)
        + 1920 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5) * (2 * m - 7)
    )


CLOSED_FORM_CASES: dict[str, ClosedFormCase] = {
    case.case_id: case
    for case in (
        ClosedFormCase(
            "k2-a1",
            lambda m, n: (binomial(m * n + m, m), binomial(m * n + m - n, m)),
        ),
        ClosedFormCase(
            "k2-a2",
            lambda m, n: (
                binomial(m * n + m, m) * (2 * m * n + m - n + 1),
                binomial(m * n + m - n + 1, m + 1) * (m + 1),
            ),
        ),
        ClosedFormCase(
            "k2-a3",
            lambda m, n: (
                binomial(m * n + m, m) * _poly_k2_a3(m, n),
                binomial(m * n - n + m + 2, m + 2) * 2 * (m + 2) * (m + 1),
            ),
        ),
        ClosedFormCase(
            "k2-m3",
            lambda n, a: (
                binomial(3 * n + a, a) * (n + 1) * (a * n + 2 * a + 8 * n + 4),
                binomial(2 * n + a + 2, a + 1) * 2 * (2 * n + 1),
            ),
        ),
        ClosedFormCase(
            "k2-m4",
            lambda n, a: (
                binomial(4 * n + a, a)
                * (n + 1)
                * (
                    a * a * (n + 2) * (n + 3)
                    + a * (n + 2) * (29 * n + 15)
                    + 18 * (3 * n + 1) * (3 * n + 2)
                ),
                binomial(3 * n + a + 3, a + 1) * 6 * (3 * n + 1) * (3 * n + 2),
            ),
        ),
        ClosedFormCase(
            "k2-n2",
            lambda m, a: ((a + 1) * (a * (m + 1) + 4 * (2 * m - 1)), 4 * (2 * m - 1)),
        ),
        ClosedFormCase(
            "k2-n3",
            lambda m, a: (
                (a + 1)
                * (
                    a * a * (m + 1) * (m + 2)
                    + a * (29 * m - 14) * (m + 1)
                    + 18 * (3 * m - 1) * (3 * m - 2)
                ),
                18 * (3 * m - 1) * (3 * m - 2),
            ),
        ),
        ClosedFormCase(
            "k3-n2",
            lambda m, a: (
                (a + 1)
                * (a + 2)
                * (
                    a * a * m * (m + 1)
                    + a * (m + 1) * (19 * m - 24)
                    + 24 * (2 * m - 1) * (2 * m - 3)
                ),
                48 * (2 * m - 1) * (2 * m - 3),
            ),
        ),
        ClosedFormCase(
            "k3-n3",
            lambda m, a: (
                (a + 1) * (a + 2) * _poly_k3_n3(m, a),
                1296 * (3 * m - 1) * (3 * m - 2) * (3 * m - 4) * (3 * m - 5),
            ),
        ),
        ClosedFormCase(
            "k4-n2",
            lambda m, a: (
                (a + 1) * (a + 2) * (a + 3) * _poly_k4_n2(m, a),
                1152 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5),
            ),
        ),
        ClosedFormCase(
            "k5-n2",
            lambda m, a: (
                (a + 1) * (a + 2) * (a + 3) * (a + 4) * _poly_k5_n2(m, a),
                46080 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5) * (2 * m - 7),
            ),
        ),
    )
}


def closed_form(case_id: str, **params: int) -> int:
    """Evaluate a catalog case; raises KeyError for unknown ids, ValueError out of range."""
    case = CLOSED_FORM_CASES[case_id]
    if set(params) != set(case.params):
        raise ValueError(f"case {case_id} takes parameters {case.params}, got {tuple(params)}")
    coords = {**case.fixed, **params}
    m, n = coords["m"], coords["n"]
    _check_rect_args(m, n, coords["a"], coords["k"])
    num, den = case.ratio(*(params[name] for name in case.params))
    return _exact(rect_syt_count(m, n) * num, den, f"closed form {case_id}{params}")


def match_closed_form(m: int, n: int, a: int, k: int) -> tuple[str, dict[str, int]] | None:
    """First catalog case whose fixed coordinates are those of the battery [(m^n), a, k], if any."""
    try:
        _check_rect_args(m, n, a, k)
    except ValueError:
        return None
    coords = {"m": m, "n": n, "a": a, "k": k}
    for case_id, case in CLOSED_FORM_CASES.items():
        if all(coords[name] == value for name, value in case.fixed.items()):
            return case_id, {name: coords[name] for name in case.params}
    return None
