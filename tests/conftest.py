"""Shared combinatorial helpers for the test suite, the paper's hypergeometric
identities, explicit tableau enumeration and the all-points Hankel count as
references, a fresh-interpreter probe, and a mask for the JSON report's timing."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd, prod
from pathlib import Path

import pytest

import battery_syt
from battery_syt import Record
from battery_syt.hypergeom import eval_pfq
from battery_syt.shapes import conjugate, rotated_complement, syt_count_straight


def rising(x, n):
    """The rising factorial by its definition: x(x+1)...(x+n-1), for any integer x."""
    return prod(range(x, x + n))


def multichoose(a, s):
    """C(a+s-1, s), the ways to choose s of a kinds with repetition; 1 at a = s = 0."""
    return rising(a, s) // factorial(s)


def as_fraction(pair):
    """A series value, an integer pair, as a ``Fraction``, once the pair is
    checked to be in lowest terms with a positive denominator."""
    num, den = pair
    assert type(num) is int and type(den) is int, pair
    assert den > 0 and gcd(num, den) == 1, pair
    return Fraction(num, den)


def series(numerators, denominators) -> Fraction:
    """The terminating series with these integer parameters, by ``eval_pfq``."""
    return as_fraction(eval_pfq(numerators, denominators))


# The paper's integer-parameter identities: a binomial-quotient closed form for
# 2F1(-a, b; -c; 1) and a contiguous relation that trades a 3F2 for two 3F2's
# with shifted parameters, which reduce_3f2 applies repeatedly. No counting
# route runs them; the tests check them against the series engine, and
# reduce_3f2 against the k = 2, a <= 3 closed forms of the catalog.


def gauss_2f1_neg(a: int, b: int, c: int) -> Fraction:
    """Closed form C(c+b, a) / C(c, a) for 2F1(-a, b; -c; 1) with b >= 1, 0 <= a <= c."""
    if b < 1:
        raise ValueError(f"requires b >= 1, got {b}")
    if not 0 <= a <= c:
        raise ValueError(f"requires 0 <= a <= c, got a={a}, c={c}")
    return Fraction(comb(c + b, a), comb(c, a))


class ContiguousDecomposition(Record):
    """Two-term rewrite of 3F2(a, b, -c; d, -e; 1); see contiguous_step. Each
    series is its (numerators, denominators) pair."""

    __slots__ = ("coefficient1", "params1", "coefficient2", "params2")

    def __init__(
        self,
        coefficient1: Fraction,
        params1: tuple,
        coefficient2: Fraction,
        params2: tuple,
    ) -> None:
        self._set(coefficient1, params1, coefficient2, params2)

    def evaluate(self) -> Fraction:
        """Value of the decomposition; branches with coefficient 0 are never evaluated."""
        total = Fraction(0)
        if self.coefficient1 != 0:
            total += self.coefficient1 * series(*self.params1)
        if self.coefficient2 != 0:
            total += self.coefficient2 * series(*self.params2)
        return total


def contiguous_step(a: int, b: int, c: int, d: int, e: int) -> ContiguousDecomposition:
    """Rewrite 3F2(a, b, -c; d, -e; 1) as
    (-c(e+a)/(de)) * 3F2(a, b+1, -c+1; d+1, -e+1; 1) + ((d+c)/d) * 3F2(a, b+1, -c; d+1, -e; 1).

    Valid for integer parameters with a >= 0, b >= -1, d >= 1 and 0 <= c <= e.
    When c == 0 the first branch carries coefficient 0 and its parameters are
    a formal placeholder (the shifted series need not terminate).
    """
    if a < 0 or b < -1 or d < 1 or not 0 <= c <= e:
        raise ValueError(
            f"parameters outside a>=0, b>=-1, d>=1, 0<=c<=e: a={a}, b={b}, c={c}, d={d}, e={e}"
        )
    coeff1 = Fraction(0) if c == 0 else Fraction(-c * (e + a), d * e)
    coeff2 = Fraction(d + c, d)
    return ContiguousDecomposition(
        coefficient1=coeff1,
        params1=((a, b + 1, -c + 1), (d + 1, -e + 1)),
        coefficient2=coeff2,
        params2=((a, b + 1, -c), (d + 1, -e)),
    )


def reduce_3f2(a: int, b: int, c: int, e: int) -> Fraction:
    """Evaluate 3F2(a, b, -c; 1, -e; 1) by contiguous steps instead of direct summation.

    Applies contiguous_step a-1 times, raising the first denominator parameter
    until it matches a; the matched pair then cancels and each surviving term
    closes through gauss_2f1_neg. Terms with equal shifted parameters are
    merged along the way, so the expansion stays quadratic in a.
    """
    if a < 1:
        raise ValueError(f"requires a >= 1, got {a}")
    if not 0 <= c <= e:
        raise ValueError(f"requires 0 <= c <= e, got c={c}, e={e}")
    terms: dict[tuple[int, int], Fraction] = {(c, e): Fraction(1)}
    for d in range(1, a):
        shifted: dict[tuple[int, int], Fraction] = {}
        for (ci, ei), weight in terms.items():
            step = contiguous_step(a, b + d - 1, ci, d, ei)
            if step.coefficient1 != 0:
                key = (ci - 1, ei - 1)
                shifted[key] = shifted.get(key, Fraction(0)) + weight * step.coefficient1
            key = (ci, ei)
            shifted[key] = shifted.get(key, Fraction(0)) + weight * step.coefficient2
        terms = shifted
    # every term is now 3F2(a, b+a-1, -ci; a, -ei; 1) = 2F1(b+a-1, -ci; -ei; 1)
    total = Fraction(0)
    for (ci, ei), weight in terms.items():
        if weight != 0:
            total += weight * gauss_2f1_neg(ci, b + a - 1, ei)
    return total


# Explicit enumeration, the reference the order-ideal DP is tested against: it
# builds every tableau of a small battery by the definition of an order ideal,
# and an independent checker tests each filling against the definition of a
# tableau.

ENUMERATION_CAP = 12


def may_grow(spans, i, above, here):
    """Whether row i of ``spans``, with ``here`` cells filled and ``above`` cells
    of row i-1 (read only when i > 0), may take its next cell: the cell exists,
    and the cell above it, where the diagram has one, is filled."""
    start, stop = spans[i]
    col = start + here
    if col >= stop:
        return False
    if i == 0:
        return True
    up_start, up_stop = spans[i - 1]
    return not up_start <= col < up_stop or col < up_start + above


class BatteryTableau(Record):
    """A filled battery shape: the battery column top-down, then the base rows."""

    __slots__ = ("battery", "rows")

    def __init__(self, battery: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> None:
        self._set(battery, rows)


def enumerate_syt(shape, cap=ENUMERATION_CAP):
    """Explicitly build every tableau of a small battery shape."""
    cells = shape.size
    if cells > cap:
        raise ValueError(f"enumeration is limited to {cap} cells, shape has {cells}")
    spans = shape.row_spans()
    grid = [[0] * (stop - start) for start, stop in spans]
    filled = [0] * len(spans)
    found = []

    def place(value):
        if value > cells:
            battery = tuple(row[0] for row in grid[:shape.a])
            found.append(BatteryTableau(battery, tuple(tuple(row) for row in grid[shape.a:])))
            return
        # the open rows are taken before the loop body changes `filled`
        for i in [i for i in range(len(spans)) if may_grow(spans, i, filled[i - 1], filled[i])]:
            grid[i][filled[i]] = value
            filled[i] += 1
            place(value + 1)
            filled[i] -= 1
            grid[i][filled[i]] = 0

    place(1)
    return found


def is_valid_tableau(shape, tableau):
    """Independent check of the filling rules: bijective entries, rows and columns
    increasing, battery increasing, and battery bottom smaller than the cell it sits on."""
    lam, a, k = shape.lam, shape.a, shape.k
    if len(tableau.battery) != a or len(tableau.rows) != len(lam):
        return False
    if any(len(row) != lam[i] for i, row in enumerate(tableau.rows)):
        return False
    entries = list(tableau.battery) + [x for row in tableau.rows for x in row]
    if sorted(entries) != list(range(1, shape.size + 1)):
        return False
    for j in range(1, a):
        if tableau.battery[j - 1] >= tableau.battery[j]:
            return False
    if a and lam and tableau.battery[-1] >= tableau.rows[0][k - 1]:
        return False
    for i, row in enumerate(tableau.rows):
        for j in range(len(row)):
            if j > 0 and row[j - 1] >= row[j]:
                return False
            if i > 0 and j < lam[i - 1] and tableau.rows[i - 1][j] >= row[j]:
                return False
    return True


def partitions_of(n, largest=None):
    """All partitions of n with parts at most largest, largest part first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def all_partitions_up_to(n):
    """Every partition of every size from 0 to n."""
    for size in range(n + 1):
        yield from partitions_of(size)


def subdiagrams(m, n):
    """All partitions fitting inside an m-by-n box (at most n parts, each at most m)."""
    def rec(rows_left, cap):
        yield ()
        if rows_left == 0:
            return
        for first in range(1, cap + 1):
            for rest in rec(rows_left - 1, first):
                yield (first,) + rest
    seen = set()
    for p in rec(n, m):
        if p not in seen:
            seen.add(p)
            yield p


def bullet_profiles(columns, max_height):
    """Weakly decreasing column-height tuples (t_1 >= ... >= t_columns >= 0), t_1 <= max_height."""
    if columns == 0:
        yield ()
        return
    for h in range(max_height, -1, -1):
        for rest in bullet_profiles(columns - 1, h):
            yield (h,) + rest


def general_by_profiles(m, n, a, k):
    """Reference for ``count_general``: the pivot decomposition summed literally.

    Each tableau of the battery above column k of the m-by-n rectangle splits
    at the pivot entry into a sub-diagram with at most k-1 columns (the bullet
    profile), its rotated complement in the rectangle, and
    multichoose(a, s) = C(a + s - 1, s) interleavings of the battery entries,
    s the profile's size. There are C(n+k-1, k-1) profiles.
    """
    total = 0
    for profile in bullet_profiles(k - 1, n):
        cells = sum(profile)
        bullet_rows = conjugate(tuple(h for h in profile if h > 0))
        total += (
            multichoose(a, cells)
            * syt_count_straight(bullet_rows)
            * syt_count_straight(rotated_complement(m, n, bullet_rows))
        )
    return total


def exact_quotient(num, den):
    """num / den, which must be an integer."""
    quotient = Fraction(num, den)
    assert quotient.denominator == 1, (num, den)
    return quotient.numerator


def det_by_cross_multiplying(matrix):
    """Determinant of an integer matrix by integer elimination.

    Each row below the pivot becomes pivot * row - lead * top, which
    multiplies the determinant by the pivot, and is then divided by the gcd of
    its entries; the product of the pivots, times those gcds over the pivot
    factors, is the determinant. A zero pivot is swapped for a row below it.
    """
    rows = [list(row) for row in matrix]
    num = den = 1
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            num = -num
        (pivot, *top), *rest = rows
        num *= pivot
        rows = []
        for lead, *row in rest:
            row = [pivot * x - lead * y for x, y in zip(row, top)]
            content = gcd(*row) or 1
            num *= content
            den *= pivot
            rows.append([x // content for x in row])
    return exact_quotient(num, den)


def general_all_points(m, n, a, k):
    """Reference for ``count_general``: the same Hankel determinant, interpolated
    as the whole polynomial E of degree rn from rn+1 values, without dividing
    out its known factor (1+y)^A, and folded over all mn cells. The weights,
    the determinant and every division are its own: the moments of
    W(x) = (x+1)_{m-k+1} C(N, x), N = n+k-2, and integer elimination by
    cross-multiplying rows.
    """
    if not (1 <= k <= m and n >= 1 and a >= 0):
        raise ValueError(f"no battery [({m}^{n}), {a}, {k}]")
    r = k - 1
    big = n + r - 1
    deg = r * n
    shift = r * (r - 1) // 2
    weights = [rising(x + 1, m - k + 1) * comb(big, x) for x in range(big + 1)]
    values = []
    for y in range(1, deg + 2):
        terms = [w * y**x for x, w in enumerate(weights)]
        moments = [sum(x**p * t for x, t in enumerate(terms)) for p in range(2 * r - 1)]
        hankel = [[moments[i + j] for j in range(r)] for i in range(r)]
        values.append(exact_quotient(det_by_cross_multiplying(hankel), y**shift))
    newton = []
    scale = 1
    for j in range(deg + 1):
        newton.append(exact_quotient(values[0], scale))
        values = [hi - lo for lo, hi in zip(values, values[1:])]
        scale *= j + 1
    coeffs = [newton[deg]]
    for j in range(deg - 1, -1, -1):
        coeffs = [hi - (j + 1) * lo for hi, lo in zip([newton[j]] + coeffs, coeffs + [0])]
    total = sum(e * rising(a, s) * factorial(m * n - s) for s, e in enumerate(coeffs))
    num = total * prod(factorial(d) for d in range(1, m - k + 1))
    den = prod(factorial(f) for f in range(n + k - 1, n + m)) * factorial(big) ** r
    return exact_quotient(num, den)


def span_profile_by_two_tests(spans):
    """Reference for the full walk of ``oracle._levels``: the same walk over
    the same ideals, re-testing rows i and i+1 by ``may_grow`` after each step
    instead of reading their bits from a table per row.

    Returns (tableau count, ideal states visited) of the spans.
    """
    rows = len(spans)
    # an ideal is one integer in mixed radix, row i's filled count its digit
    weight = [1] * (rows + 1)
    for i in range(rows - 1, -1, -1):
        weight[i] = weight[i + 1] * (spans[i][1] - spans[i][0] + 1)

    def filled(state, i):
        return state % weight[i] // weight[i + 1] if 0 <= i < rows else 0

    def open_bit(state, i):  # no row past the last is ever open
        return (i < rows and may_grow(spans, i, filled(state, i - 1), filled(state, i))) << i

    level = {0: [1, sum(open_bit(0, i) for i in range(rows))]}
    states = 1
    for _ in range(sum(e - s for s, e in spans)):
        nxt = {}
        for state, (ways, mask) in level.items():
            for i in range(rows):
                if not mask >> i & 1:
                    continue
                grown = state + weight[i + 1]
                entry = nxt.get(grown)
                if entry is not None:
                    entry[0] += ways
                    continue
                nxt[grown] = [ways, mask & ~(3 << i) | open_bit(grown, i) | open_bit(grown, i + 1)]
        level = nxt
        states += len(level)
    return sum(ways for ways, _ in level.values()), states


# stdlib modules the CLI leaves unloaded unless a call needs them; the first
# three no count loads, since the series engine sums in plain integers, and
# the last three it never loads, since it reads its options without argparse
WATCHED_STDLIB = (
    "fractions", "decimal", "numbers", "json", "dataclasses", "inspect", "argparse", "gettext", "locale",
)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with the package's source on its path.

    Returns its standard output lines and the set of modules it had loaded when
    it finished, of those of the package and of ``WATCHED_STDLIB``.
    """
    probe = (
        f"{code}\n"
        "import sys\n"
        "print(sorted(m for m in sys.modules\n"
        f"            if m.partition('.')[0] == 'battery_syt' or m in {WATCHED_STDLIB!r}))\n"
    )
    src = str(Path(battery_syt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.splitlines()
    return out[:-1], set(ast.literal_eval(out[-1]))


def masked(out):
    """``out`` with the JSON report's timing, which differs between calls, zeroed."""
    return re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out)


@pytest.fixture
def int_str_limit():
    """A setter of CPython's int/str digit limit (0 lifts it) for one test; the
    limit in force before is restored after it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
