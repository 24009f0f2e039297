"""Counters for standard Young tableaux of battery shapes over rectangles.

Three routes to the same number, kept deliberately independent so they can
check each other:

* ``count_k2`` .. ``count_k6``: the rectangle tableau count times an exact
  terminating (possibly nested) hypergeometric value; the parameters for
  column k are generated by one rule as k-1 nested levels;
* ``count_general``: a direct sum over bullet profiles, splitting every
  tableau at the pivot cell into a small top-left subtableau, a rotated
  complement subtableau, and a binomial interleaving factor;
* the closed-form catalog: multiplicative formulas for families with one
  parameter fixed at a small value.

Counts are integers by construction; a non-integer intermediate aborts loudly
since it can only mean a wrong parameter table.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .arith import binomial
from .hypergeom import (
    AffineParam,
    MultiPFQSpec,
    PFQLevel,
    PFQParams,
    eval_multi_pfq,
    eval_pfq,
)
from .shapes import BatteryShape, conjugate, rotated_complement, syt_count_straight

__all__ = [
    "NonIntegerCountError",
    "rect_syt_count",
    "count_k2",
    "count_k3",
    "count_k4",
    "count_k5",
    "count_k6",
    "COUNT_BY_COLUMN",
    "bullet_profiles",
    "count_general",
    "closed_form",
    "match_closed_form",
    "CLOSED_FORM_CASES",
]


class NonIntegerCountError(ArithmeticError):
    """A tableau count materialized with a non-unit denominator."""


def _as_count(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise NonIntegerCountError(f"non-integer count {value} for {context}")
    return value.numerator


def rect_syt_count(m: int, n: int) -> int:
    """Number of standard Young tableaux of the m-by-n rectangle."""
    return syt_count_straight((m,) * n)


def _check_rect_args(m: int, n: int, a: int, k: int):
    if m < k:
        raise ValueError(f"column {k} battery needs base width m >= {k}, got m={m}")
    if n < 1:
        raise ValueError(f"need at least one row, got n={n}")
    if a < 0:
        raise ValueError(f"battery length must be non-negative, got a={a}")


def count_k2(m: int, n: int, a: int) -> int:
    """Count for the battery above column 2 of an m-by-n rectangle:
    rectangle count times 3F2(a, m, -n; 1, -mn; 1)."""
    _check_rect_args(m, n, a, 2)
    value = rect_syt_count(m, n) * eval_pfq(PFQParams((a, m, -n), (1, -m * n)))
    return _as_count(value, f"[({m}^{n}), {a}, 2]")


def _levels(m: int, n: int, a: int, k: int) -> MultiPFQSpec:
    """Nested-sum parameters for the battery above column k, one level per column left of it.

    Level i sums over x_i; its parameters are affine in the outer indices
    x_0..x_{i-1}, and the coefficient on x_j sits at position j.
    """
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
    return MultiPFQSpec(tuple(levels))


def _count_multi(m: int, n: int, a: int, k: int) -> int:
    """Battery above column k: rectangle count times a (k-1)-level nested sum."""
    _check_rect_args(m, n, a, k)
    value = rect_syt_count(m, n) * eval_multi_pfq(_levels(m, n, a, k))
    return _as_count(value, f"[({m}^{n}), {a}, {k}]")


def count_k3(m: int, n: int, a: int) -> int:
    """Battery above column 3: two-level nested sum."""
    return _count_multi(m, n, a, 3)


def count_k4(m: int, n: int, a: int) -> int:
    """Battery above column 4: three-level nested sum."""
    return _count_multi(m, n, a, 4)


def count_k5(m: int, n: int, a: int) -> int:
    """Battery above column 5: four-level nested sum."""
    return _count_multi(m, n, a, 5)


def count_k6(m: int, n: int, a: int) -> int:
    """Battery above column 6: five-level nested sum."""
    return _count_multi(m, n, a, 6)


COUNT_BY_COLUMN: dict[int, Callable[[int, int, int], int]] = {
    2: count_k2,
    3: count_k3,
    4: count_k4,
    5: count_k5,
    6: count_k6,
}


def bullet_profiles(columns: int, max_height: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing column-height tuples (t_1 >= ... >= t_columns >= 0), t_1 <= max_height."""
    if columns == 0:
        yield ()
        return
    for h in range(max_height, -1, -1):
        for rest in bullet_profiles(columns - 1, h):
            yield (h,) + rest


def count_general(m: int, n: int, a: int, k: int) -> int:
    """Count for any battery column 1 <= k <= m over an m-by-n rectangle.

    Splits each tableau at the pivot entry: the entries below it fill a
    sub-diagram with at most k-1 columns (the bullet profile), the entries
    above fill its rotated complement in the rectangle, and the battery
    entries interleave in binomial(a + |profile| - 1, |profile|) ways.
    """
    if k < 1 or k > m:
        raise ValueError(f"column index must satisfy 1 <= k <= m, got k={k}, m={m}")
    _check_rect_args(m, n, a, k)
    total = 0
    for profile in bullet_profiles(k - 1, n):
        cells = sum(profile)
        bullet_rows = conjugate(tuple(h for h in profile if h > 0))
        total += (
            binomial(a + cells - 1, cells)
            * syt_count_straight(bullet_rows)
            * syt_count_straight(rotated_complement(m, n, bullet_rows))
        )
    return total


@dataclass(frozen=True)
class ClosedFormCase:
    """One multiplicative formula from the fixed-parameter catalog."""

    case_id: str
    summary: str
    params: tuple[str, ...]
    # battery coordinates covered by given free parameters, as (m, n, a, k)
    coordinates: Callable[..., tuple[int, int, int, int]]
    valid: Callable[..., bool]
    value: Callable[..., Fraction]


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
            "k2-a1", "[(m^n), 1, 2]", ("m", "n"),
            lambda m, n: (m, n, 1, 2),
            lambda m, n: m >= 2 and n >= 1,
            lambda m, n: rect_syt_count(m, n)
            * Fraction(binomial(m * n + m, m), binomial(m * n + m - n, m)),
        ),
        ClosedFormCase(
            "k2-a2", "[(m^n), 2, 2]", ("m", "n"),
            lambda m, n: (m, n, 2, 2),
            lambda m, n: m >= 2 and n >= 1,
            lambda m, n: rect_syt_count(m, n)
            * Fraction(binomial(m * n + m, m), binomial(m * n + m - n + 1, m + 1))
            * Fraction(2 * m * n + m - n + 1, m + 1),
        ),
        ClosedFormCase(
            "k2-a3", "[(m^n), 3, 2]", ("m", "n"),
            lambda m, n: (m, n, 3, 2),
            lambda m, n: m >= 2 and n >= 1,
            lambda m, n: rect_syt_count(m, n)
            * Fraction(binomial(m * n + m, m), binomial(m * n - n + m + 2, m + 2))
            * Fraction(_poly_k2_a3(m, n), 2 * (m + 2) * (m + 1)),
        ),
        ClosedFormCase(
            "k2-m3", "[(3^n), a, 2]", ("n", "a"),
            lambda n, a: (3, n, a, 2),
            lambda n, a: n >= 1 and a >= 0,
            lambda n, a: rect_syt_count(3, n)
            * Fraction(binomial(3 * n + a, a), binomial(2 * n + a + 2, a + 1))
            * Fraction((n + 1) * (a * n + 2 * a + 8 * n + 4), 2 * (2 * n + 1)),
        ),
        ClosedFormCase(
            "k2-m4", "[(4^n), a, 2]", ("n", "a"),
            lambda n, a: (4, n, a, 2),
            lambda n, a: n >= 1 and a >= 0,
            lambda n, a: rect_syt_count(4, n)
            * Fraction(binomial(4 * n + a, a), binomial(3 * n + a + 3, a + 1))
            * Fraction(
                (n + 1)
                * (
                    a * a * (n + 2) * (n + 3)
                    + a * (n + 2) * (29 * n + 15)
                    + 18 * (3 * n + 1) * (3 * n + 2)
                ),
                6 * (3 * n + 1) * (3 * n + 2),
            ),
        ),
        ClosedFormCase(
            "k2-n2", "[(m^2), a, 2]", ("m", "a"),
            lambda m, a: (m, 2, a, 2),
            lambda m, a: m >= 2 and a >= 0,
            lambda m, a: rect_syt_count(m, 2)
            * Fraction((a + 1) * (a * (m + 1) + 4 * (2 * m - 1)), 4 * (2 * m - 1)),
        ),
        ClosedFormCase(
            "k2-n3", "[(m^3), a, 2]", ("m", "a"),
            lambda m, a: (m, 3, a, 2),
            lambda m, a: m >= 2 and a >= 0,
            lambda m, a: rect_syt_count(m, 3)
            * Fraction(
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
            "k3-n2", "[(m^2), a, 3]", ("m", "a"),
            lambda m, a: (m, 2, a, 3),
            lambda m, a: m >= 3 and a >= 0,
            lambda m, a: rect_syt_count(m, 2)
            * Fraction(
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
            "k3-n3", "[(m^3), a, 3]", ("m", "a"),
            lambda m, a: (m, 3, a, 3),
            lambda m, a: m >= 3 and a >= 0,
            lambda m, a: rect_syt_count(m, 3)
            * Fraction(
                (a + 1) * (a + 2) * _poly_k3_n3(m, a),
                1296 * (3 * m - 1) * (3 * m - 2) * (3 * m - 4) * (3 * m - 5),
            ),
        ),
        ClosedFormCase(
            "k4-n2", "[(m^2), a, 4]", ("m", "a"),
            lambda m, a: (m, 2, a, 4),
            lambda m, a: m >= 4 and a >= 0,
            lambda m, a: rect_syt_count(m, 2)
            * Fraction(
                (a + 1) * (a + 2) * (a + 3) * _poly_k4_n2(m, a),
                1152 * (2 * m - 1) * (2 * m - 3) * (2 * m - 5),
            ),
        ),
        ClosedFormCase(
            "k5-n2", "[(m^2), a, 5]", ("m", "a"),
            lambda m, a: (m, 2, a, 5),
            lambda m, a: m >= 5 and a >= 0,
            lambda m, a: rect_syt_count(m, 2)
            * Fraction(
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
    args = [params[name] for name in case.params]
    if not case.valid(*args):
        raise ValueError(f"parameters {params} outside the validity range of case {case_id}")
    return _as_count(case.value(*args), f"closed form {case_id}{params}")


def match_closed_form(m: int, n: int, a: int, k: int) -> Optional[tuple[str, dict[str, int]]]:
    """First catalog case covering the battery [(m^n), a, k], if any."""
    coords = {"m": m, "n": n, "a": a, "k": k}
    for case_id, case in CLOSED_FORM_CASES.items():
        params = {name: coords[name] for name in case.params}
        args = params.values()
        if case.coordinates(*args) == (m, n, a, k) and case.valid(*args):
            return case_id, params
    return None
