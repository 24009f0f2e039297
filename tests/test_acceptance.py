"""Acceptance suite: one test per criterion, each printing a PASS line when it
holds (run with ``pytest tests/test_acceptance.py -v -s``). All value checks
are bit-exact; elapsed-time budgets are asserted where stated."""

import time
from collections import Counter

from battery_syt import cli
from battery_syt.arith import factorize
from battery_syt.counting import (
    CLOSED_FORM_CASES,
    COUNT_BY_COLUMN,
    NonIntegerCountError,
    _case_coords,
    closed_form,
    count_general,
    count_hyper,
    rect_syt_count,
)
from battery_syt.oracle import count_linear_extensions, linear_extension_profile
from battery_syt.shapes import BatteryShape, hook_lengths, syt_count_straight
from conftest import contiguous_step, gauss_2f1_neg, reduce_3f2, series

WIDE_BATTERY_FACTORS = (
    (2, 5), (3, 2), (5, 2), (11, 1), (13, 1), (17, 2), (19, 3), (23, 2),
    (29, 1), (31, 1), (37, 2), (41, 1), (3361178017, 1), (2839893182041, 1),
)

TALL_BATTERY_FACTORS = (
    (2, 7), (3, 2), (5, 2), (7, 1), (13, 1), (17, 3), (19, 3), (23, 2),
    (29, 2), (31, 2), (37, 2), (41, 1), (43, 1), (59, 1), (61, 1), (67, 1),
    (71, 1), (73, 1), (2792843, 1),
)


def _report(number, message, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS criterion {number}: {message}{suffix}")


def test_criterion_01_golden_wide_battery():
    start = time.perf_counter()
    by_formula = count_hyper(11, 7, 1, 6)
    by_general = count_general(11, 7, 1, 6)
    by_dp, states = linear_extension_profile(BatteryShape((11,) * 7, 1, 6))
    factors = factorize(by_formula).factors
    elapsed = time.perf_counter() - start
    assert by_formula == by_general == by_dp
    assert factors == WIDE_BATTERY_FACTORS
    assert states <= 2 * 31824  # (a+1) * C(11+7, 7) ideal states
    assert elapsed < 5.0
    _report(1, "[(11^7), 1, 6] agrees across formula, general sum, and oracle; "
               "factorization matches", elapsed)


def test_criterion_02_golden_tall_battery():
    start = time.perf_counter()
    by_formula = count_hyper(7, 11, 1, 4)
    by_general = count_general(7, 11, 1, 4)
    by_dp = count_linear_extensions(BatteryShape((7,) * 11, 1, 4))
    factors = factorize(by_formula).factors
    elapsed = time.perf_counter() - start
    assert by_formula == by_general == by_dp
    assert factors == TALL_BATTERY_FACTORS
    assert elapsed < 5.0
    _report(2, "[(7^11), 1, 4] agrees across formula, general sum, and oracle; "
               "factorization matches", elapsed)


def test_criterion_03_hook_length_sanity():
    assert Counter(hook_lengths((3, 2, 1))) == Counter([5, 3, 1, 3, 1, 1])
    assert syt_count_straight((3, 2, 1)) == 16
    _report(3, "staircase (3,2,1) has hook multiset {5,3,1,3,1,1} and 16 tableaux")


def test_criterion_04_gauss_identity_grid():
    start = time.perf_counter()
    cases = 0
    for c in range(0, 9):
        for a in range(0, c + 1):
            for b in range(1, 10):
                assert series((-a, b), (-c,)) == gauss_2f1_neg(a, b, c)
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 405
    assert elapsed < 1.0
    _report(4, f"binomial-quotient identity for 2F1(-a,b;-c;1) on {cases} cases", elapsed)


def test_criterion_05_contiguous_and_sum_expansion_grids():
    start = time.perf_counter()
    contiguous_cases = 0
    for a in range(0, 6):
        for b in range(-1, 6):
            for d in range(1, 6):
                for e in range(0, 7):
                    for c in range(0, e + 1):
                        source = series((a, b, -c), (d, -e))
                        assert contiguous_step(a, b, c, d, e).evaluate() == source
                        contiguous_cases += 1
    expansion_cases = 0
    for a in range(1, 6):
        for b in range(1, 5):
            for d in range(1, 5):
                for e in range(1, 6):
                    for c in range(1, e + 1):
                        lhs = series((a, b, -c), (d, -e))
                        tail = sum(
                            series((t, b + 1, -c + 1), (d + 1, -e + 1))
                            for t in range(1, a + 1)
                        )
                        assert (lhs - 1) * d * e == b * c * tail
                        expansion_cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"contiguous relation ({contiguous_cases} cases) and sum expansion "
               f"({expansion_cases} cases) hold exactly", elapsed)


def test_criterion_06_reduction_algorithm_grid():
    start = time.perf_counter()
    cases = 0
    for a in range(1, 6):
        for b in range(1, 7):
            for e in range(0, 13):
                for c in range(0, e + 1):
                    assert reduce_3f2(a, b, c, e) == series((a, b, -c), (1, -e))
                    cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, f"contiguous reduction equals direct summation on {cases} cases", elapsed)


def test_criterion_07_oracle_equivalence_sweep():
    start = time.perf_counter()
    dp_cases = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for a in range(0, 4):
                for k in range(1, m + 1):
                    dp = count_linear_extensions(BatteryShape((m,) * n, a, k))
                    assert count_general(m, n, a, k) == dp, (m, n, a, k)
                    dp_cases += 1
    formula_cases = 0
    for m in range(2, 6):
        for n in range(1, 6):
            for a in range(0, 5):
                assert COUNT_BY_COLUMN[2](m, n, a) == count_general(m, n, a, 2)
                formula_cases += 1
    for k in (3, 4, 5, 6):
        for m in range(k, k + 3):
            for n in range(1, 5):
                for a in range(0, 4):
                    assert COUNT_BY_COLUMN[k](m, n, a) == count_general(m, n, a, k)
                    formula_cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"general sum equals the oracle on {dp_cases} shapes and the "
               f"hypergeometric counters on {formula_cases} shapes", elapsed)


def test_criterion_08_closed_form_catalog():
    start = time.perf_counter()
    grids = {
        "k2-a1": [{"m": m, "n": n} for m in range(2, 7) for n in range(1, 7)],
        "k2-a2": [{"m": m, "n": n} for m in range(2, 7) for n in range(1, 7)],
        "k2-a3": [{"m": m, "n": n} for m in range(2, 7) for n in range(1, 7)],
        "k2-m3": [{"n": n, "a": a} for n in range(1, 7) for a in range(0, 6)],
        "k2-m4": [{"n": n, "a": a} for n in range(1, 7) for a in range(0, 6)],
        "k2-n2": [{"m": m, "a": a} for m in range(2, 7) for a in range(0, 6)],
        "k2-n3": [{"m": m, "a": a} for m in range(2, 7) for a in range(0, 6)],
        "k3-n2": [{"m": m, "a": a} for m in range(3, 7) for a in range(0, 6)],
        "k3-n3": [{"m": m, "a": a} for m in range(3, 7) for a in range(0, 6)],
        "k4-n2": [{"m": m, "a": a} for m in range(4, 7) for a in range(0, 6)],
        "k5-n2": [{"m": m, "a": a} for m in range(5, 7) for a in range(0, 6)],
    }
    assert set(grids) == set(CLOSED_FORM_CASES), "catalog must cover all eleven cases"
    cases = 0
    for case_id, grid in grids.items():
        fixed = _case_coords(case_id)[0]
        for params in grid:
            coords = {**fixed, **params}
            expected = count_general(*(coords[name] for name in "mnak"))
            assert closed_form(case_id, **params) == expected, (case_id, params)
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"all {len(grids)} closed-form cases match the general sum on {cases} points", elapsed)


def test_criterion_09_integrality_across_sweeps():
    # every counter assembles its value from exact rationals and raises
    # NonIntegerCountError on a non-unit denominator; sweep and count violations
    start = time.perf_counter()
    violations = 0
    evaluated = 0
    for k, counter in COUNT_BY_COLUMN.items():
        for m in range(k, k + 2):
            for n in range(1, 4):
                for a in range(0, 4):
                    try:
                        counter(m, n, a)
                    except NonIntegerCountError:
                        violations += 1
                    evaluated += 1
    for case_id in CLOSED_FORM_CASES:
        fixed, names = _case_coords(case_id)
        for first in range(2, 6):
            for second in range(1, 5):
                params = dict(zip(names, (first, second)))
                coords = {**fixed, **params}
                # n and a are at least 1 on this grid, so only the width can fall short
                if coords["m"] >= coords["k"]:
                    try:
                        closed_form(case_id, **params)
                    except NonIntegerCountError:
                        violations += 1
                    evaluated += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    _report(9, f"{evaluated} formula evaluations, zero non-integer counts", elapsed)


def test_criterion_10_cli_contract(capsys, monkeypatch):
    golden = "2^5*3^2*5^2*11*13*17^2*19^3*23^2*29*31*37^2*41*3361178017*2839893182041"
    assert cli.run(["count", "battery:rect:11x7,a=1,k=6", "--output", "factored"]) == 0
    assert capsys.readouterr().out.strip() == golden

    assert cli.run(["count", "partition:3,2,1"]) == 0
    assert capsys.readouterr().out.strip() == "16"

    assert cli.run(["count", "battery:rect:2x2,a=1,k=2", "--method", "dp", "--verify"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "5"
    assert "general" in out.err

    monkeypatch.setitem(cli.METHODS, "general", lambda shape, size_cap: -1)
    assert cli.run(["count", "battery:rect:2x2,a=1,k=2", "--method", "dp", "--verify"]) == 4
    capsys.readouterr()
    _report(10, "documented CLI invocations succeed; fault-injected verify exits 4")


def test_criterion_11_k2_catalog_by_the_contiguous_reduction():
    # the paper derives the k = 2, a <= 3 closed forms as the rectangle count
    # times 3F2(a, m, -n; 1, -mn; 1), summed by contiguous steps; this checks
    # the catalog's hand-typed ratios against that derivation
    start = time.perf_counter()
    cases = 0
    for a in range(1, 4):
        for m in range(2, 13):
            for n in range(1, 13):
                derived = reduce_3f2(a, m, n, m * n) * rect_syt_count(m, n)
                assert derived == closed_form(f"k2-a{a}", m=m, n=n), (a, m, n)
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 396
    assert elapsed < 5.0
    _report(11, f"k2-a1..a3 closed forms equal the contiguous reduction on {cases} points", elapsed)
