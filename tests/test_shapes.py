import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from battery_syt import cli, oracle, shapes
from battery_syt.shapes import (
    BatteryShape,
    SkewShape,
    TruncatedShape,
    _column_runs,
    as_partition,
    conjugate,
    hook_lengths,
    rotated_complement,
    syt_count_straight,
)
from conftest import all_partitions_up_to, subdiagrams


@st.composite
def partition_strategy(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bins = draw(st.integers(min_value=1, max_value=max(n, 1)))
    counts = Counter(draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n)))
    return tuple(sorted(counts.values(), reverse=True))


def test_as_partition_canonicalizes():
    assert as_partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([3, -1])
    with pytest.raises(ValueError):
        as_partition([3, 0, 1])


def test_trailing_zero_rows_are_dropped_in_linear_time():
    # one slice after an index walk: a slice per zero is quadratic in their number
    start = time.perf_counter()
    assert as_partition((1,) + (0,) * 100_000) == (1,)
    assert time.perf_counter() - start < 1


def test_a_row_length_that_is_not_whole_is_refused_not_truncated():
    assert as_partition([3.0, 2]) == (3, 2)
    with pytest.raises(ValueError, match="expected an integer, got 3.5"):
        as_partition([3.5, 2])
    with pytest.raises(ValueError, match="expected an integer, got 3.5"):
        BatteryShape((3.5, 2), 1, 2)


@pytest.mark.parametrize("a, k", [(1.5, 2), (1, 2.5)])
def test_a_battery_length_or_column_that_is_not_whole_is_refused(a, k):
    # a fractional a would reach math.comb inside the count; it is refused here
    with pytest.raises(ValueError, match="expected an integer"):
        BatteryShape((3, 2), a, k)
    assert BatteryShape((3, 2), 1.0, 2.0) == BatteryShape((3, 2), 1, 2)
    assert type(BatteryShape((3, 2), 1.0, 2.0).a) is int


def test_conjugate_known_values():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((5, 3, 1)) == (3, 2, 2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involution_exhaustive():
    for p in all_partitions_up_to(12):
        assert conjugate(conjugate(p)) == p


@given(partition_strategy())
def test_conjugate_is_involution_random(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)
    # column j holds one cell of each row longer than j
    assert conjugate(p) == tuple(sum(1 for row in p if row > j) for j in range(p[0] if p else 0))


def test_hook_lengths_known_values():
    assert Counter(hook_lengths((3, 2, 1))) == Counter([5, 3, 1, 3, 1, 1])
    assert hook_lengths((1,)) == (1,)
    assert Counter(hook_lengths((2, 2))) == Counter([3, 2, 2, 1])


def test_hook_multiset_invariant_under_conjugation():
    for p in all_partitions_up_to(12):
        assert Counter(hook_lengths(p)) == Counter(hook_lengths(conjugate(p)))


def test_syt_count_known_values():
    assert syt_count_straight((3, 2, 1)) == 16
    assert syt_count_straight((1,)) == 1
    assert syt_count_straight(()) == 1
    # frozen from the linear-extension oracle (Catalan number for two equal rows)
    assert syt_count_straight((5, 5)) == 42


MALFORMED = [
    ((1, 3), "row lengths must be weakly decreasing, got 1 before 3"),
    ((3, 0, 1), "row lengths must be positive, got 0 at row 2"),
    ((3, -1), "row lengths must be positive, got -1 at row 2"),
    ((2, 2.5), "expected an integer, got 2.5"),
]


@pytest.mark.parametrize("p, message", MALFORMED)
def test_syt_count_refuses_a_malformed_partition_where_it_enters(p, message):
    # not an IndexError, ZeroDivisionError or TypeError from the hooks, nor a
    # hook product that fails to divide
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        syt_count_straight(p)
    assert syt_count_straight((2, 2.0)) == syt_count_straight((2, 2)) == 2


@pytest.mark.parametrize("read", [conjugate, hook_lengths])
@pytest.mark.parametrize("p, message", MALFORMED)
def test_conjugate_and_hook_lengths_read_their_partition_as_syt_count_does(read, p, message):
    # conjugate((1, 3)) gave (2,) and hook_lengths((1, 3)) raised IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(p)
    assert read((2, 2.0)) == read((2, 2))
    assert {type(x) for x in read((2, 2.0))} == {int}


@pytest.fixture
def partition_reads(monkeypatch):
    """The partitions ``shapes.as_partition`` reads while a test runs."""
    reads, right = [], shapes.as_partition
    monkeypatch.setattr(shapes, "as_partition", lambda p: reads.append(p) or right(p))
    return reads


@pytest.mark.parametrize("door", [conjugate, hook_lengths, syt_count_straight])
def test_each_straight_shape_door_reads_its_partition_once(door, partition_reads):
    door((3, 2, 1))
    assert partition_reads == [(3, 2, 1)]


def test_the_dp_cut_check_reads_no_partition(partition_reads):
    # the cut check counts a rectangle the DP built from spans it has checked;
    # only the reads of building the battery come before it
    shape = BatteryShape((4, 4, 4), 1, 2)
    partition_reads.clear()
    assert oracle.linear_extension_profile(shape)[0] == 1176  # count_general(4, 3, 1, 2)
    assert partition_reads == []


def test_syt_count_invariant_under_conjugation():
    for p in all_partitions_up_to(12):
        assert syt_count_straight(p) == syt_count_straight(conjugate(p))


@pytest.mark.parametrize("argv, route", [
    (["partition:3,2,1"], "hlf"),
    (["battery:rect:3x2,a=1,k=2", "--method", "hyper"], "hyper"),
], ids=["hlf", "hyper"])
def test_a_wrong_hook_fails_the_hook_length_division(argv, route, monkeypatch, capsys):
    # one hook scaled by 7, a prime above the 6 cells, so the hook product
    # cannot divide 6!: an inconsistent count (exit 4), not a wrong one on stdout
    right = shapes._hooks
    monkeypatch.setattr(shapes, "_hooks", lambda p: (7 * right(p)[0],) + right(p)[1:])
    assert cli.run(["count", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: inconsistent count from {route}: the hook product does not divide 6!\n"


def test_rotated_complement_known_values():
    assert rotated_complement(3, 2, (2,)) == (3, 1)
    assert rotated_complement(3, 2, ()) == (3, 3)
    assert rotated_complement(3, 2, (3, 3)) == ()
    with pytest.raises(ValueError):
        rotated_complement(3, 2, (4,))
    with pytest.raises(ValueError):
        rotated_complement(3, 2, (2, 2, 2))


def test_rotated_complement_refuses_a_side_that_is_not_whole():
    with pytest.raises(ValueError, match="expected an integer, got 3.5"):
        rotated_complement(3.5, 2, (1,))
    with pytest.raises(ValueError, match="expected an integer, got 2.5"):
        rotated_complement(3, 2.5, (1,))
    assert rotated_complement(3.0, 2.0, (1,)) == (3, 2)


def test_rotated_complement_is_involution():
    for m in range(1, 6):
        for n in range(1, 6):
            for mu in subdiagrams(m, n):
                image = rotated_complement(m, n, mu)
                assert sum(image) == m * n - sum(mu)
                assert rotated_complement(m, n, image) == mu


def test_skew_shape_validation():
    s = SkewShape((4, 3, 2), (2, 1))
    assert s.size == 6
    assert s.row_spans() == ((2, 4), (1, 3), (0, 2))
    with pytest.raises(ValueError):
        SkewShape((3, 2), (4,))
    with pytest.raises(ValueError):
        SkewShape((3,), (1, 1))


def test_truncated_shape_validation():
    t = TruncatedShape(SkewShape((5, 5, 2, 1)), (2,))
    assert t.size == 11
    assert t.row_spans() == ((0, 3), (0, 5), (0, 2), (0, 1))
    # deleting too much from one row leaves column 2 split across rows 1 and 3
    with pytest.raises(ValueError):
        TruncatedShape(SkewShape((6, 4, 4)), (3, 3))
    with pytest.raises(ValueError):
        TruncatedShape(SkewShape((3, 2)), (4,))


def line_convex_by_columns(spans):
    """Reference for ``_column_runs``: every occupied column tested; returns
    each one's first covering row and one past its last."""
    cover = {}
    for col in sorted({col for s, e in spans for col in range(s, e)}):
        rows = [i for i, (s, e) in enumerate(spans) if s <= col < e]
        if rows and rows[-1] - rows[0] + 1 != len(rows):
            raise ValueError(f"column {col + 1} is not contiguous: occupied rows {[r + 1 for r in rows]}")
        cover[col] = (rows[0], rows[-1] + 1)
    return cover


def _refusal(check, spans):
    try:
        check(spans)
    except ValueError as exc:
        return str(exc)
    return None


# spans of up to 7 rows, empty rows included
spans_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])), max_size=7
)


@given(spans_strategy)
@example([(0, 2), (1, 1), (0, 2)])  # an empty middle row: column 1 lies in rows 1 and 3
@example([(3, 1), (0, 2), (1, 2)])  # a row that ends before it starts covers nothing
@example([(-2, 1), (-1, 1)])  # a negative start
def test_line_convex_check_matches_the_column_by_column_reference(spans):
    refusal = _refusal(line_convex_by_columns, spans)
    assert _refusal(_column_runs, spans) == refusal
    if refusal is None:
        # the runs cover each occupied column once, with its first row and one past its last
        runs = _column_runs(spans)
        by_run = {col: (top, bottom) for left, right, top, bottom in runs for col in range(left, right)}
        assert sum(right - left for left, right, _, _ in runs) == len(by_run)
        assert by_run == line_convex_by_columns(spans)


def test_line_convex_check_does_not_walk_the_columns():
    wide = 10**9
    assert TruncatedShape(SkewShape((wide,) * 40), ()).size == 40 * wide
    # rows (0, 3), (0, 1), (0, wide): column 2 is split across rows 1 and 3
    with pytest.raises(ValueError, match=r"column 2 is not contiguous: occupied rows \[1, 3\]"):
        TruncatedShape(SkewShape((wide + 2, wide, wide)), (wide - 1, wide - 1))


def test_battery_shape_validation():
    ok = BatteryShape((4, 4, 4), 3, 2)
    assert ok.size == 15
    # column 3 exists because the first row has length 3
    assert BatteryShape((3, 1), 1, 3).size == 5
    with pytest.raises(ValueError, match=r"^base \(2, 2\) has no column 3 \(widest row is 2\)$"):
        BatteryShape((2, 2), 2, 3)
    with pytest.raises(ValueError, match="^battery column length must be non-negative, got -1$"):
        BatteryShape((2, 2), -1, 1)
    with pytest.raises(ValueError, match="^column index must be at least 1, got 0$"):
        BatteryShape((2, 2), 1, 0)
    with pytest.raises(ValueError, match="^an empty base cannot carry a battery column$"):
        BatteryShape((), 1, 1)
    assert BatteryShape((), 0, 1).size == 0
    assert BatteryShape((2, 2), 0, 2).size == 4


def test_battery_shape_helpers():
    shape = BatteryShape((3, 3), 2, 2)
    assert shape.is_rectangle()
    assert not BatteryShape((3, 1), 0, 1).is_rectangle()
    assert not BatteryShape((3, 3, 3, 2), 0, 1).is_rectangle()  # the last row alone differs
    assert not BatteryShape((), 0, 1).is_rectangle()
    assert shape.row_spans() == ((1, 2), (1, 2), (0, 3), (0, 3))
