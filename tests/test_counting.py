import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from battery_syt.counting import (
    CLOSED_FORM_CASES,
    COUNT_BY_COLUMN,
    NonIntegerCountError,
    _case_coords,
    _exact,
    _hankel_det,
    _moments,
    closed_form,
    count_general,
    count_hyper,
    match_closed_form,
    rect_syt_count,
)
from battery_syt import cli, counting
from battery_syt.cli import parse_shape_expr
from battery_syt.oracle import count_linear_extensions
from battery_syt.shapes import BatteryShape
from conftest import bullet_profiles, det_by_cross_multiplying, general_all_points, general_by_profiles


def test_rect_syt_count():
    assert rect_syt_count(3, 2) == 5
    assert rect_syt_count(1, 4) == 1
    assert rect_syt_count(2, 2) == 2


def test_rect_syt_count_reads_its_sides_as_the_other_rectangle_counters_do():
    assert rect_syt_count(3, 3.0) == rect_syt_count(3.0, 3) == 42
    for m, n in ((3, -1), (0, 0), (0, 3)):
        with pytest.raises(ValueError, match=f"^a rectangle needs sides of at least 1, got {m}x{n}$"):
            rect_syt_count(m, n)
    with pytest.raises(ValueError, match="expected an integer, got 2.5"):
        rect_syt_count(3, 2.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(0, 12), st.integers(1, 70), st.integers(1, 40), st.integers(1, 5))
@example(7, 0, 5, 1, 3)
@example(7, 3, 1, 1, 3)
@example(7, 3, 8, 1, 3)
@example(0, 0, 1, 1, 1)
def test_moments_sum_powers_times_rising_factorials_times_binomials(top, c, count, y, size):
    # c = 0 is the row side's binomial row; count = top + 1 the column side's
    # whole row, and past it every weight is 0; y marks the row at one point
    assert _moments(top, c, count, y, math.factorial(c), size) == [
        sum(x**p * math.perm(x + c, c) * math.comb(top, x) * y**x for x in range(count))
        for p in range(size)
    ]


def test_count_k2_known_values():
    assert count_hyper(2, 1, 1, 2) == 2
    assert count_hyper(2, 2, 1, 2) == 5
    for m in range(2, 5):
        for n in range(1, 5):
            assert count_hyper(m, n, 0, 2) == rect_syt_count(m, n)
            # column 1 has no levels: the battery entries are forced
            assert count_hyper(m, n, 3, 1) == rect_syt_count(m, n)


def test_count_k2_rejects_narrow_base():
    with pytest.raises(ValueError):
        count_hyper(1, 3, 1, 2)
    with pytest.raises(ValueError):
        count_hyper(3, 2, 1, 0)
    for k, counter in COUNT_BY_COLUMN.items():
        with pytest.raises(ValueError):
            counter(k - 1, 3, 1)


def test_count_k3_known_value():
    assert count_hyper(3, 1, 1, 3) == 3


def test_bullet_profiles():
    assert list(bullet_profiles(0, 3)) == [()]
    assert set(bullet_profiles(2, 2)) == {
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
    }
    for profile in bullet_profiles(3, 4):
        assert all(profile[i] >= profile[i + 1] for i in range(2))


def test_count_general_known_values():
    assert count_general(3, 1, 1, 3) == 3
    assert count_general(2, 2, 2, 2) == 9
    for m in range(1, 5):
        for n in range(1, 4):
            for a in range(0, 4):
                assert count_general(m, n, a, 1) == rect_syt_count(m, n)


def test_count_general_at_k_1_builds_no_power_of_n_minus_1_factorial(monkeypatch):
    # at k = 1 the profile is empty: its determinant is 1 and N!^0 is 1, so
    # (n-1)! is never built; it cost seconds at n = 300000. At m = 1 the
    # numerator's (cells-deg)! and the denominator's (n+k-1)! are both n!, so
    # their ratio is one empty perm and n! is not built either
    factors = []  # the factors of each factorial and perm built
    monkeypatch.setattr(counting, "factorial", lambda x: factors.append(x) or math.factorial(x))
    monkeypatch.setattr(counting, "perm", lambda x, j: factors.append(j) or math.perm(x, j))
    for n in (2000, 300000):
        factors.clear()
        assert count_general(1, n, 1, 1) == 1
        assert max(factors) < n - 1, n
    assert count_general(3, 4, 2, 1) == rect_syt_count(3, 4)


def test_count_general_rejects_bad_column():
    with pytest.raises(ValueError):
        count_general(3, 2, 1, 4)
    with pytest.raises(ValueError):
        count_general(3, 2, 1, 0)


def test_count_k2_matches_general():
    for m in range(2, 5):
        for n in range(1, 4):
            for a in range(0, 4):
                assert count_hyper(m, n, a, 2) == count_general(m, n, a, 2)


def _check_routes_agree(m, n, a, k):
    """count_general equals the literal profile sum, count_hyper and, at 40 cells or fewer, the DP."""
    count = count_general(m, n, a, k)
    assert count == general_by_profiles(m, n, a, k), (m, n, a, k)
    assert count == count_hyper(m, n, a, k), (m, n, a, k)
    if k in COUNT_BY_COLUMN:
        assert COUNT_BY_COLUMN[k](m, n, a) == count, (m, n, a, k)
    if m * n + a <= 40:
        assert count == count_linear_extensions(BatteryShape((m,) * n, a, k)), (m, n, a, k)


def test_nested_counts_match_general():
    for k in range(1, 13):
        for m in (k, k + 1):
            for n in range(1, 6 if k <= 6 else 5):
                for a in range(0, 3):
                    _check_routes_agree(m, n, a, k)


def test_count_hyper_counts_a_deep_nest_under_a_low_recursion_limit():
    # the series walk takes no stack frame per level: 899 levels under a limit of 200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert count_hyper(900, 1, 1, 900) == 900
    finally:
        sys.setrecursionlimit(limit)


def test_count_hyper_counts_a_deep_nest_from_deep_in_the_stack():
    def called_from(frames):
        return count_hyper(900, 1, 1, 900) if frames == 0 else called_from(frames - 1)

    assert called_from(300) == 900


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.integers(k, k + 3), st.integers(1, 4), st.integers(0, 4), st.just(k))))
def test_general_matches_reference_hyper_and_dp(coords):
    _check_routes_agree(*coords)


def test_general_pinned_at_40x40():
    # computed once by count_hyper (about 4 s); general takes a fraction of that
    count = str(count_general(40, 40, 10, 6))
    assert len(count) == 1957
    assert hashlib.sha256(count.encode()).hexdigest() == (
        "2e249008a18d3fb2c58a3bf447fe1066358ff15497f2262032cddcab7fdc0c13"
    )


def test_general_matches_all_points_reference():
    # dividing out the known factor (1+y)^A changes the points and the fold, not the count
    for m in range(1, 11):
        for n in range(1, 11):
            for k in range(1, m + 1):
                for a in (0, 2):
                    assert count_general(m, n, a, k) == general_all_points(m, n, a, k), (m, n, a, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.integers(-50, 50), min_size=2 * r - 1, max_size=2 * r - 1))))
@example((1, [-7]))
@example((3, [16, 32, 80, 224, 680]))  # sum_x x^p C(4, x): positive definite
@example((3, [1, -1, 2, -5, 14]))  # signed Catalan numbers: every minor is 1
def test_hankel_det_is_exact_on_any_integer_input(case):
    # each fraction-free quotient is a minor (Sylvester's identity), so no step
    # is checked; a pivot is a leading principal minor below size r
    r, moments = case
    hankel = [[moments[i + j] for j in range(r)] for i in range(r)]
    assume(all(det_by_cross_multiplying([row[:s] for row in hankel[:s]]) for s in range(1, r)))
    assert _hankel_det(moments, r) == det_by_cross_multiplying(hankel)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 12), st.integers(0, 6), st.integers(1, m))))
def test_general_matches_all_points_reference_property(coords):
    assert count_general(*coords) == general_all_points(*coords), coords


def test_general_interpolates_only_the_unknown_factor(monkeypatch):
    # at 20x20 k=20, r = 19 and c = 1: E has degree rn = 380 and the factor
    # (1+y)^361, so the quotient takes 20 determinants instead of 381
    calls = []
    hankel_det = counting._hankel_det
    monkeypatch.setattr(counting, "_hankel_det", lambda *args: calls.append(args) or hankel_det(*args))
    count = str(count_general(20, 20, 3, 20))
    assert len(calls) == 20
    assert len(count) == 375
    assert hashlib.sha256(count.encode()).hexdigest() == (
        "223b66b249ddbb794731224d076905746d43205cf046957d1eb489cfcd228c4b"
    )


def test_general_row_side_matches_profiles_and_hyper():
    # n < k-1: count_general reads each profile by its n row lengths
    for k in range(3, 13):
        for n in range(1, min(4, k - 2) + 1):
            for m in (k, k + 3):
                for a in range(0, 4):
                    _check_routes_agree(m, n, a, k)


def test_general_row_side_takes_n_by_n_determinants(monkeypatch):
    # at 40x2 k=40, r = 39 and c = 1: Q has degree r min(n, c) = 39, so 40
    # values, each a determinant of the shorter side n = 2 rather than r = 39
    calls = []
    hankel_det = counting._hankel_det
    monkeypatch.setattr(counting, "_hankel_det", lambda *args: calls.append(args) or hankel_det(*args))
    assert count_general(40, 2, 1, 40) == 202278371832757962680400
    assert len(calls) == 40
    assert {size for _, size in calls} == {2}


@pytest.mark.parametrize("m, n, a, k", [
    (1000, 1, 1, 1), (2000, 1, 1, 1), (400, 3, 5, 4), (500, 2, 3, 3), (300, 2, 2, 1),
])
def test_general_column_side_on_a_long_base(m, n, a, k):
    # the constant prod d! / prod F! is one denominator of F!/d! factors; as
    # two factorial products it ran to megabits at m = 1000 (about 15 s)
    assert count_general(m, n, a, k) == count_hyper(m, n, a, k)


def test_general_refuses_a_perturbed_weight(monkeypatch, capsys):
    # the final division by N!^r prod F! checks integrality; one weight off by
    # one (W(1) y + 1, which adds 1^p to every moment) leaves a non-integer
    # count here (not at every shape)
    moments = counting._moments

    def perturbed(*args):
        return [mu + 1 for mu in moments(*args)]

    monkeypatch.setattr(counting, "_moments", perturbed)
    # the column side (r = 3 points a profile) and the row side (n = 3 < r = 5)
    for m, n, a, k in ((6, 4, 2, 4), (6, 3, 2, 6)):
        with pytest.raises(NonIntegerCountError):
            count_general(m, n, a, k)
        # no closed form covers it, so auto runs general
        assert cli.run(["count", f"battery:rect:{m}x{n},a={a},k={k}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: inconsistent count from general" in captured.err


def test_general_exits_4_on_a_vanishing_pivot(monkeypatch, capsys):
    # all-ones moments make a rank-one Hankel matrix: the 4x4 column side's
    # third pivot is 0, and dividing by it is an inconsistent count (exit 4)
    monkeypatch.setattr(counting, "_moments", lambda top, c, count, y, term, size: [1] * size)
    with pytest.raises(ZeroDivisionError):
        count_general(8, 6, 2, 5)
    # no closed form covers it, so auto runs general
    assert cli.run(["count", "battery:rect:8x6,a=2,k=5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inconsistent count from general")


def test_counts_match_dp_oracle_small():
    for m in range(2, 4):
        for n in range(1, 4):
            for a in range(0, 3):
                for k in range(1, m + 1):
                    dp = count_linear_extensions(BatteryShape((m,) * n, a, k))
                    assert count_general(m, n, a, k) == dp, (m, n, a, k)


def test_closed_form_known_values():
    assert closed_form("k2-a1", m=2, n=2) == 5
    assert closed_form("k2-a2", m=2, n=2) == 9
    assert closed_form("k2-n2", m=3, a=1) == 12
    assert count_hyper(3, 2, 1, 2) == 12
    # a case's id names the coordinates it fixes; params are the other two of m, n, a
    assert _case_coords("k2-a1") == ({"k": 2, "a": 1}, ("m", "n"))
    assert _case_coords("k2-m3") == ({"k": 2, "m": 3}, ("n", "a"))
    assert _case_coords("k5-n2")[1] == ("m", "a")


def test_closed_form_rejects_bad_input():
    with pytest.raises(KeyError):
        closed_form("k9-n9", m=3, a=1)
    with pytest.raises(ValueError):
        closed_form("k2-a1", m=3)
    with pytest.raises(ValueError):
        closed_form("k5-n2", m=4, a=1)  # base too narrow for column 5
    with pytest.raises(ValueError):
        closed_form("k2-m3", n=0, a=1)
    with pytest.raises(ValueError):
        closed_form("k2-n2", m=3, a=-1)


def test_closed_forms_match_general():
    grids = {
        "k2-a1": [{"m": m, "n": n} for m in range(2, 6) for n in range(1, 5)],
        "k2-a2": [{"m": m, "n": n} for m in range(2, 6) for n in range(1, 5)],
        "k2-a3": [{"m": m, "n": n} for m in range(2, 6) for n in range(1, 5)],
        "k2-m3": [{"n": n, "a": a} for n in range(1, 5) for a in range(0, 5)],
        "k2-m4": [{"n": n, "a": a} for n in range(1, 5) for a in range(0, 5)],
        "k2-n2": [{"m": m, "a": a} for m in range(2, 6) for a in range(0, 5)],
        "k2-n3": [{"m": m, "a": a} for m in range(2, 6) for a in range(0, 5)],
        "k3-n2": [{"m": m, "a": a} for m in range(3, 6) for a in range(0, 5)],
        "k3-n3": [{"m": m, "a": a} for m in range(3, 6) for a in range(0, 5)],
        "k4-n2": [{"m": m, "a": a} for m in range(4, 7) for a in range(0, 5)],
        "k5-n2": [{"m": m, "a": a} for m in range(5, 7) for a in range(0, 5)],
    }
    assert set(grids) == set(CLOSED_FORM_CASES)
    for case_id, grid in grids.items():
        fixed = _case_coords(case_id)[0]
        for params in grid:
            coords = {**fixed, **params}
            expected = count_general(*(coords[name] for name in "mnak"))
            assert closed_form(case_id, **params) == expected, (case_id, params)


def test_match_closed_form():
    assert match_closed_form(5, 4, 1, 2) == ("k2-a1", {"m": 5, "n": 4})
    assert match_closed_form(3, 7, 9, 2) == ("k2-m3", {"n": 7, "a": 9})
    assert match_closed_form(6, 2, 4, 5) == ("k5-n2", {"m": 6, "a": 4})
    assert match_closed_form(5, 5, 5, 2) is None
    assert match_closed_form(4, 2, 1, 5) is None  # column 5 needs width >= 5
    assert match_closed_form(3, 0, 1, 2) is None  # no rows
    assert match_closed_form(3, 2, -1, 2) is None  # negative battery length
    assert match_closed_form(11, 7, 1, 6) is None


def _first_in_catalog_order(m, n, a, k):
    """The first case, scanning the catalog in key order, whose fixed coordinates are the battery's."""
    if not (1 <= k <= m and n >= 1 and a >= 0):  # the battery rule over a rectangle, stated here
        return None
    coords = {"m": m, "n": n, "a": a, "k": k}
    for case_id in CLOSED_FORM_CASES:
        fixed, names = _case_coords(case_id)
        if all(coords[name] == value for name, value in fixed.items()):
            return case_id, {name: coords[name] for name in names}
    return None


def test_match_closed_form_is_the_first_match_in_catalog_order():
    matches = 0
    for m in range(-1, 8):
        for n in range(-1, 6):
            for a in range(-1, 6):
                for k in range(-1, 8):
                    match = match_closed_form(m, n, a, k)
                    assert match == _first_in_catalog_order(m, n, a, k), (m, n, a, k)
                    matches += match is not None
    assert matches == 246


def _refusal(m, n, a, k):
    """Why the battery [(m^n), a, k] is refused, or None when it is one: a side
    below 1, or else BatteryShape's message for the whole rectangle, with the
    rectangle named by its sides rather than by its n rows."""
    if m < 1 or n < 1:
        return "a rectangle needs sides of at least 1"
    try:
        BatteryShape((m,) * n, a, k)
    except ValueError as exc:
        return str(exc).replace(f"base {(m,) * n}", f"rectangle {m}x{n}")
    return None


def test_the_rectangle_counters_refuse_what_battery_shape_refuses():
    refusals = 0
    for m in range(-1, 7):
        for n in range(-1, 7):
            for a in range(-1, 5):
                for k in range(-1, 8):
                    refusal = _refusal(m, n, a, k)
                    refusals += refusal is not None
                    if a >= 0 and n >= 1 and k > m >= 1:
                        # the one refusal that names the shape names it by its sides
                        assert refusal == f"rectangle {m}x{n} has no column {k} (widest row is {m})"
                    for count in (count_hyper, count_general):
                        if refusal is None:
                            count(m, n, a, k)
                        else:
                            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}"):
                                count(m, n, a, k)
                    coords = {"m": m, "n": n, "a": a, "k": k}
                    listed = any(all(coords[name] == value for name, value in _case_coords(case_id)[0].items())
                                 for case_id in CLOSED_FORM_CASES)
                    match = match_closed_form(m, n, a, k)
                    assert (match is None) == (refusal is not None or not listed), coords
    assert 0 < refusals < 8 * 8 * 6 * 9


def test_a_tall_rectangle_battery_is_counted_within_3_s():
    # each weight row is built binomial by binomial from the one before: a
    # math.comb call per point costs time cubic in n
    start = time.perf_counter()
    assert count_general(2, 8000, 3, 2) == closed_form("k2-a3", m=2, n=8000)
    assert time.perf_counter() - start < 3


def test_a_tall_battery_far_from_its_edge_is_counted_within_10_s():
    # each point's 2r-1 moments are summed as its N+1 terms W(x) y^x are
    # stepped, each term times x, a small factor, between moments, and no point
    # holds a row; a table of 2r-1 moment rows multiplied big by big by a row
    # of powers y^x at each point took about 20 s, and a held weight row times
    # that power row about 4 s (2-vCPU VM)
    start = time.perf_counter()
    count = count_general(10, 5000, 2, 5)
    assert time.perf_counter() - start < 10
    # pinned from the moment table's count, as bytes: str() of 165,556 bits is slow
    assert count.bit_length() == 165556
    assert hashlib.sha256(count.to_bytes(165556 // 8 + 1, "big")).hexdigest() == (
        "bd77ea72cad1c12d7332a5f03cdc83ae1ad2c81338ebd0a200e19d5d5fbb19d8"
    )


def test_a_battery_three_cells_wide_and_20000_tall_is_counted_within_3_s():
    # a 2x2 determinant at three points y: each point's three moments are
    # summed as its terms are stepped, and no point holds a row, where a held
    # weight row times a row of powers y^x, big by big, took 3.4-6.7 s (2-vCPU VM)
    start = time.perf_counter()
    count = count_general(3, 20000, 1, 3)
    assert time.perf_counter() - start < 3
    # pinned from the held row's count, as bytes, like the one below
    assert count.bit_length() == 95043
    assert hashlib.sha256(count.to_bytes(95043 // 8 + 1, "big")).hexdigest() == (
        "abe979ffa8b00868c4de617da9045fd9aace4908d3300d7653c19b12e8c06367"
    )


def test_a_tall_battery_s_count_holds_no_weight_row():
    # each point's moments are summed as its terms are stepped, so neither
    # the general partner of 2x30000 (one moment a point) nor the general
    # count of 3x20000 (three) holds a row of N+1 big weights: 99 and 170 MB
    # peak RSS with rows held, 19 and 14 MB stepped. A child started from
    # pytest inherits pytest's high-water mark, so a small interpreter starts
    # the CLI and reads its children's
    probe = (
        "import resource, subprocess, sys\n"
        "for args in (['battery:rect:2x30000,a=1,k=2', '--verify'], ['battery:rect:3x20000,a=1,k=3']):\n"
        "    argv = [sys.executable, '-m', 'battery_syt.cli', 'count', *args]\n"
        "    done = subprocess.run(argv, capture_output=True, text=True)\n"
        "    print(done.returncode, done.stderr.strip())\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(counting.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert out[0] == "0 verified: closed == general"
    assert out[1].rstrip() == "0"  # no partner admits 3x20000 at k = 3: auto runs general alone
    assert int(out[2]) < 50 * 1024  # ru_maxrss is in KiB on Linux


def test_a_battery_at_column_1_builds_no_weights_within_2_5_s():
    # at k = 1 the determinant is empty: 100,000 big weights summed once would
    # take seconds for a count of 1 (a single column, filled top to bottom)
    start = time.perf_counter()
    assert count_general(1, 100000, 2, 1) == 1
    assert time.perf_counter() - start < 2.5


def test_a_column_of_300000_cells_is_counted_within_8_s():
    # the column-side denominator is a product of 300,000 factors, which a
    # running product multiplied in tens of seconds
    start = time.perf_counter()
    assert count_general(300000, 1, 1, 1) == 1
    assert time.perf_counter() - start < 8


def test_a_whole_float_counts_as_its_integer():
    assert count_general(3.0, 2, 1, 2) == 12
    assert closed_form("k2-a1", m=3.0, n=2) == 12
    assert match_closed_form(3, 2, 1.0, 2) == ("k2-a1", {"m": 3, "n": 2})
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        count_hyper(3, 2, 1.5, 2)


def test_catalog_keys_read_back_and_list_a_then_m_then_n():
    order = []
    for case_id in CLOSED_FORM_CASES:
        fixed = _case_coords(case_id)[0]
        assert "-".join(f"{name}{value}" for name, value in fixed.items()) == case_id
        column, coordinate = fixed
        assert column == "k" and coordinate in "amn"
        order.append((fixed["k"], "amn".index(coordinate)))
    # match_closed_form looks a column's cases up by a, then m, then n, which
    # is the first match in catalog order only while the catalog lists them so
    for k in {k for k, _ in order}:
        ranks = [rank for column, rank in order if column == k]
        assert ranks == sorted(ranks), k


def test_match_closed_form_candidates_agree():
    # wherever several cases cover the same shape they must give the same count
    for m in range(2, 6):
        for n in range(1, 4):
            for a in range(0, 4):
                match = match_closed_form(m, n, a, 2)
                if match is not None:
                    case_id, params = match
                    assert closed_form(case_id, **params) == count_general(m, n, a, 2)


def test_monotonicity_in_battery_length():
    for m in range(2, 5):
        for n in range(1, 4):
            for k in range(2, m + 1):
                for a in range(0, 4):
                    assert count_general(m, n, a + 1, k) > count_general(m, n, a, k)
    # a column-1 battery forces its entries, so the count is flat in a
    for a in range(0, 4):
        assert count_general(3, 3, a + 1, 1) == count_general(3, 3, a, 1)


def test_as_count_guards_integrality():
    assert _exact(14, 2, "test") == 7
    with pytest.raises(NonIntegerCountError):
        _exact(1, 2, "test")


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


HIGH_COLUMNS = ("k7", "k8", "k9", "k10")


def _cheapest_pool_entry(band):
    """Cheapest entry of a hyper-large band, or of one column of the general-high-k k7-10 band."""
    workloads = json.loads(POOL.read_text())["workloads"]
    if band in HIGH_COLUMNS:
        entries = (
            e for slot in workloads["general-high-k"]["slots"] for e in slot
            if e["band"] == "k7-10" and parse_shape_expr(e["args"][0]).k == int(band[1:])
        )
    else:
        entries = (e for slot in workloads["hyper-large"]["slots"] for e in slot if e["band"] == band)
    return min(entries, key=lambda e: e["cost_s"])


@pytest.mark.parametrize("band", ["k4", "k5", "k6", "k2-3-defect", *HIGH_COLUMNS])
def test_pinned_large_counts(band, int_str_limit):
    # each pinned count was agreed by two routes: hyper and general, or for
    # columns 7..10 general and dp
    int_str_limit(0)
    entry = _cheapest_pool_entry(band)
    shape = parse_shape_expr(entry["args"][0])
    coords = (shape.lam[0], len(shape.lam), shape.a, shape.k)
    count = count_hyper(*coords)
    assert count == int(entry["count"])
    assert count_general(*coords) == count
    if band == "k2-3-defect":
        assert len(entry["count"]) > 4300
