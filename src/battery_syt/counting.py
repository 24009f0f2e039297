"""Counters for standard Young tableaux of battery shapes over rectangles.

Three routes to the same number, kept deliberately independent so they can
check each other:

* ``count_hyper``: the rectangle tableau count times an exact terminating
  nested hypergeometric sum, for every column 1 <= k <= m; one function of
  the outer indices gives the integer parameters of each of column k's k-1
  levels where the series walk sums that level, at any depth;
* ``count_general``: the pivot decomposition, summed in closed form. Every
  tableau splits at the pivot cell into a small top-left subtableau (its
  bullet profile has at most r = k-1 columns), a rotated complement
  subtableau, and a binomial interleaving factor. By the hook length formula
  both subtableau counts are products over the profile's shifted column
  heights, or equally over its shifted row lengths, and Heine's identity turns
  the sum over all profiles into one Hankel determinant of moments, a
  polynomial in a marking variable y, on the shorter side of the profile's
  n-by-r box. Its known factor (1+y)^(r max(n-c, 0)), c = m-k+1, is divided
  out, and the rest is evaluated at r min(n, c)+1 integers by fraction-free
  elimination and interpolated exactly, so the work is polynomial in m, n and
  k rather than the C(n+k-1, k-1) profiles the sum has;
* the closed-form catalog: multiplicative formulas, over the rectangle count,
  for families with the column and one more coordinate fixed at small values;
  a case's id names the coordinates it fixes, and a battery's case is the
  first in catalog order whose fixed coordinates are the battery's.

Counts are integers by construction. Every route ends in one checked integer
division (``_exact``): ``count_hyper`` divides the rectangle count times the
nested sum's numerator by its denominator, as ``closed_form`` does with a
case's ratio. A non-integer intermediate or an inexact division aborts
loudly, since it can only mean a wrong parameter table. The series engine
(``hypergeom``) is imported on the first hyper count; the other routes never
load it. Binomials are ``math.comb``, rising factorials ``math.perm``, and
``count_general`` steps each point's N+1 terms (x+1)_c C(top, x) y^x, each
from the one before, and sums every moment as each term is made
(``_moments``): no point holds a row, and no route loads the factoring module.
"""

from math import comb as binomial  # the closed forms' binomials; a binding that span tracing rebinds
from math import factorial, perm

from . import _EXPORTS, _lazy, _product
from .shapes import (
    _rect_battery,
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
    """Number of standard Young tableaux of the m-by-n rectangle, its sides read
    as every rectangle counter reads them (``_rect_battery``)."""
    m, n, _, _ = _rect_battery(m, n, 0, 1)
    return syt_count_straight((m,) * n)


def _series_params(m: int, n: int, a: int):
    """Nested-sum parameters for a battery over an m-by-n rectangle, one level per
    column left of the battery's, as a function of the outer indices x_0..x_{i-1}.
    With S = sum(x) and p_j = -(i-1-j) - x_j, level i has the numerators a+S,
    m-i, -n-i and each p_j twice, and the denominators -mn+S, 1 and each p_j-1
    twice. Column 2 has the single level 3F2(a, m, -n; -mn, 1; 1)."""

    def params(outer):
        i, s = len(outer), sum(outer)
        p = [j + 1 - i - x for j, x in enumerate(outer) for _ in range(2)]
        return [a + s, m - i, -n - i] + p, [-m * n + s, 1] + [b - 1 for b in p]

    return params


def count_hyper(m: int, n: int, a: int, k: int) -> int:
    """Count for the battery above column 1 <= k <= m of an m-by-n rectangle:
    the rectangle count times the (k-1)-level nested sum of ``_series_params``,
    at any k: the walk takes no stack frame per level."""
    m, n, a, k = _rect_battery(m, n, a, k)
    num, den = eval_multi_pfq(_series_params(m, n, a), k - 1)
    return _exact(rect_syt_count(m, n) * num, den, f"[({m}^{n}), {a}, {k}]")


# the paper's columns 2..6 as counters of (m, n, a); count_hyper takes any column
COUNT_BY_COLUMN: "dict[int, Callable[[int, int, int], int]]" = {
    k: (lambda m, n, a, k=k: count_hyper(m, n, a, k)) for k in range(2, 7)
}


def _moments(top: int, c: int, count: int, y: int, term: int, size: int) -> list[int]:
    """mu_p = sum_x x^p W(x) y^x, p < size, x < count: W(x) y^x = (x+1)_c C(top, x) y^x
    from W(0) = term = c!, each the one before times y (x+c) (top-x+1) / x^2, small
    factors first: one big-by-small multiply and exact divide a term, added to each
    moment as it is made, times x between moments but not after the last, so no
    row is held. With c = 0, W is the binomial C(top, x)."""
    *moments, last = [term] + [0] * (size - 1)  # x = 0 adds to mu_0 alone
    higher = range(size - 1)
    for x in range(1, count):
        part = term = term * (y * (x + c) * (top - x + 1)) // (x * x)
        for p in higher:
            moments[p] += part
            part *= x
        last += part
    return [*moments, last]


def _hankel_det(moments: list[int], r: int) -> int:
    """det[moments[i+j]] for i, j < r by fraction-free (Bareiss) elimination.

    The matrix is the moment matrix of positive weights on at least r points,
    hence positive definite: no pivot vanishes and none needs a row swap. It
    stays symmetric under elimination, so only the upper triangle is updated.
    No step is checked: each quotient is a minor of the integer matrix
    (Sylvester's identity), so every division is exact on any integer input.
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
                row[j] = (pivot * row[j] - lead * top[j]) // prev
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
    w = W / N! and C_fix = prod_{d<=m-k} d! / prod_{F=n+k-1}^{n+m-1} F!,
    formed as 1 / ((n+k-1)! prod_{d=1}^{m-k} (d+1)_{n+k-1}), each F! over its d!.
    Heine's identity sums Delta(l)^2 prod W(l_i) y^(l_i) over all point sets
    as D(y) = det[mu_{i+j}(y)], mu_p(y) = sum_x x^p W(x) y^x, each summed as the
    point's N+1 terms are stepped (``_moments``): no point y holds a row. D(y) /
    y^C(r,2) is an integer polynomial E of degree rn with coefficients e_s, so
    the count is C_fix sum_s e_s (a)_s (mn-s)! / N!^r.

    W is the Krawtchouk weight C(N, x) y^x times a degree-c polynomial,
    c = m-k+1, and Christoffel's formula for it puts a known factor in E:
    E = (1+y)^A Q with A = r max(n-c, 0), so Q, of degree r min(n, c), is
    interpolated instead, from r min(n, c) + 1 values (its divisions are
    checked). Chu-Vandermonde, sum_t C(A,t) (b)_t (M-t)! = (M+b)! (M-A)! / (M+b-A)!,
    turns the sum over e into (mn+a)! / (mn+a-A)! sum_j q_j (a)_j (mn-A-j)!.

    When n < r the profile is read by its n row lengths instead, a smaller
    determinant for a battery far right of a short rectangle: the points
    l_j = mu_j + n - j lie in the same [0, N], the complement's are m+n-1-l_j,
    and the two counts multiply to s! (mn-s)! Delta(l)^2 prod C(m+n-1, l_j) /
    (m+n-1)!^n. Summed by Heine over n-point sets with the weight
    C(m+n-1, x) y^x, that is det[mu_{i+j}(y)] of size n with D(y) / y^C(n,2)
    equal to E up to a constant factor, so the same (1+y)^A divides it, the
    same points interpolate it and the count divides by (m+n-1)!^n alone.
    One statement picks the side, (side, top, c, fixed) = (n, m+n-1, 0, 0) if
    n < r else (r, N, m-k+1, n+k-1), and one denominator serves both:
    prod_{0<d<c} (d+1)_fixed times top!^side, times fixed! at the end.
    """
    m, n, a, k = _rect_battery(m, n, a, k)
    context = f"[({m}^{n}), {a}, {k}]"
    r = k - 1
    big = n + r - 1
    known = r * max(n - (m - k + 1), 0)  # A: (1+y)^A divides E
    deg = r * n - known
    # the row side (n < r): n points a profile, weight C(m+n-1, x); else r points, W(x)
    side, top, c, fixed = (n, m + n - 1, 0, 0) if n < r else (r, big, m - k + 1, n + k - 1)
    # each F! over its d! (none at c = 0), (n+k-1)! joins below; k = 1: no N!, not N!^0
    den = _product([perm(d + fixed, fixed) for d in range(1, c)]) * (factorial(top) ** side if side else 1)
    shift = side * (side - 1) // 2
    lead = factorial(c) if side else 1  # W(0) = c!, once a call, not once a point
    values = []
    for y in range(1, deg + 2):
        moments = _moments(top, c, big + 1, y, lead, 2 * side - 1) if side else []  # k = 1: det [] = 1
        values.append(_exact(_hankel_det(moments, side), y**shift * (y + 1) ** known, context))
    # forward differences at y = 1 give Q in the basis (y-1)(y-2)...(y-j);
    # an integer polynomial has its j-th difference divisible by j!
    newton = []
    for j in range(deg + 1):
        newton.append(_exact(values[0], factorial(j), context))
        values = [hi - lo for lo, hi in zip(values, values[1:])]
    # Horner in that basis, expanding to monomial coefficients, lowest first
    coeffs = [newton[deg]]
    for j in range(deg - 1, -1, -1):
        coeffs = [hi - (j + 1) * lo for hi, lo in zip([newton[j]] + coeffs, coeffs + [0])]
    # sum_j q_j (a)_j (mn-A-j)! / (mn-A-deg)!, nested over j so no (mn-A-j)! is formed
    cells = m * n - known
    total = 0
    rising = 1
    for j, q in enumerate(coeffs):
        total = total * (cells - j + 1) + q * rising
        rising *= a + j
    num = total * perm(m * n + a, known)
    # (cells-deg)! over the column side's (n+k-1)! (the row side has none): by
    # one perm on the larger's side when the two are near (both are n! at
    # k = m = 1), else each by factorial, which is faster a factor than perm
    free = cells - deg
    if 4 * min(free, fixed) < max(free, fixed):
        num, den = num * factorial(free), den * factorial(fixed)
    elif free >= fixed:
        num *= perm(free, free - fixed)
    else:
        den *= perm(fixed, fixed - free)
    return _exact(num, den, context)


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


# A case's id names the coordinates it fixes: k2-a1 is the battery of length 1
# above column 2, k2-m3 column 2 over width 3. Its ratio takes the other two of
# m, n, a, in that order, and gives the battery count over the rectangle count
# as an integer (numerator, denominator) pair, which closed_form divides once.
# The first case in this order whose fixed coordinates are a battery's is its match.
CLOSED_FORM_CASES: "dict[str, Callable[[int, int], tuple[int, int]]]" = {
    "k2-a1": lambda m, n: (binomial(m * n + m, m), binomial(m * n + m - n, m)),
    "k2-a2": lambda m, n: (
        binomial(m * n + m, m) * (2 * m * n + m - n + 1),
        binomial(m * n + m - n + 1, m + 1) * (m + 1),
    ),
    "k2-a3": lambda m, n: (
        binomial(m * n + m, m) * _poly_k2_a3(m, n),
        binomial(m * n - n + m + 2, m + 2) * 2 * (m + 2) * (m + 1),
    ),
    "k2-m3": lambda n, a: (
        binomial(3 * n + a, a) * (n + 1) * (a * n + 2 * a + 8 * n + 4),
        binomial(2 * n + a + 2, a + 1) * 2 * (2 * n + 1),
    ),
    "k2-m4": lambda n, a: (
        binomial(4 * n + a, a)
        * (n + 1)
        * (
            a * a * (n + 2) * (n + 3)
            + a * (n + 2) * (29 * n + 15)
            + 18 * (3 * n + 1) * (3 * n + 2)
        ),
        binomial(3 * n + a + 3, a + 1) * 6 * (3 * n + 1) * (3 * n + 2),
    ),
    "k2-n2": lambda m, a: ((a + 1) * (a * (m + 1) + 4 * (2 * m - 1)), 4 * (2 * m - 1)),
    "k2-n3": lambda m, a: (
        (a + 1)
        * (
            a * a * (m + 1) * (m + 2)
            + a * (29 * m - 14) * (m + 1)
            + 18 * (3 * m - 1) * (3 * m - 2)
        ),
        18 * (3 * m - 1) * (3 * m - 2),
    ),
    "k3-n2": lambda m, a: (
        (a + 1)
        * (a + 2)
        * (
            a * a * m * (m + 1)
            + a * (m + 1) * (19 * m - 24)
            + 24 * (2 * m - 1) * (2 * m - 3)
        ),
        48 * (2 * m - 1) * (2 * m - 3),
    ),
    "k3-n3": lambda m, a: (
        (a + 1) * (a + 2) * _poly_k3_n3(m, a),
        1296 * (3 * m - 1) * (3 * m - 2) * (3 * m - 4) * (3 * m - 5),
    ),
    "k4-n2": lambda m, a: (
        (a + 1) * (a + 2) * (a + 3) * _poly_k4_n2(m, a),
        1152 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5),
    ),
    "k5-n2": lambda m, a: (
        (a + 1) * (a + 2) * (a + 3) * (a + 4) * _poly_k5_n2(m, a),
        46080 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5) * (2 * m - 7),
    ),
}


def _case_coords(case_id: str) -> tuple[dict[str, int], tuple[str, ...]]:
    """A case id read as the coordinates it fixes, and the names of its ratio's
    two parameters: the other two of m, n, a, in that order."""
    fixed = {part[0]: int(part[1:]) for part in case_id.split("-")}
    return fixed, tuple(name for name in "mna" if name not in fixed)


def closed_form(case_id: str, **params: int) -> int:
    """Evaluate a catalog case; raises KeyError for unknown ids, ValueError out of range."""
    ratio = CLOSED_FORM_CASES[case_id]
    fixed, names = _case_coords(case_id)
    if set(params) != set(names):
        raise ValueError(f"case {case_id} takes parameters {names}, got {tuple(params)}")
    coords = dict(zip("mnak", _rect_battery(**fixed, **params)))
    num, den = ratio(*(coords[name] for name in names))
    return _exact(rect_syt_count(coords["m"], coords["n"]) * num, den, f"closed form {case_id}{params}")


def match_closed_form(m: int, n: int, a: int, k: int) -> tuple[str, dict[str, int]] | None:
    """The first catalog case, in catalog order, whose fixed coordinates are those of the
    battery [(m^n), a, k], with the battery's other two of m, n, a as its parameters; if any."""
    try:
        coords = dict(zip("mnak", _rect_battery(m, n, a, k)))
    except ValueError:
        return None
    for case_id in CLOSED_FORM_CASES:
        fixed, names = _case_coords(case_id)
        if fixed.items() <= coords.items():
            return case_id, {name: coords[name] for name in names}
    return None
