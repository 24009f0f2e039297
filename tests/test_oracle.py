import io
from contextlib import redirect_stdout
from math import factorial, prod

import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from battery_syt import cli
from battery_syt.oracle import (
    _capped,
    _span_profile,
    conjugate_spans,
    count_line_convex,
    count_linear_extensions,
    linear_extension_profile,
)
from battery_syt.shapes import BatteryShape, SkewShape, TruncatedShape, syt_count_straight
from conftest import (
    BatteryTableau,
    all_partitions_up_to,
    enumerate_syt,
    is_valid_tableau,
    span_profile_by_two_tests,
)


def _brute_force_extensions(spans):
    """Slow reference: enumerate all linear extensions of the cell poset directly."""
    cells = [(i, c) for i, (s, e) in enumerate(spans) for c in range(s, e)]
    index = {cell: j for j, cell in enumerate(cells)}
    preds = []
    for (i, c) in cells:
        preds.append([index[p] for p in ((i, c - 1), (i - 1, c)) if p in index])
    total = 0
    used = set()

    def rec(done):
        nonlocal total
        if done == len(cells):
            total += 1
            return
        for j in range(len(cells)):
            if j not in used and all(p in used for p in preds[j]):
                used.add(j)
                rec(done + 1)
                used.remove(j)

    rec(0)
    return total


def test_known_counts():
    assert count_linear_extensions(BatteryShape((3, 2, 1), 0, 1)) == 16
    assert count_linear_extensions(BatteryShape((2, 2), 1, 2)) == 5
    assert count_linear_extensions(BatteryShape((), 0, 1)) == 1


def test_matches_hook_length_formula_exhaustively():
    for p in all_partitions_up_to(12):
        if not p:
            continue
        assert count_linear_extensions(BatteryShape(p, 0, 1)) == syt_count_straight(p)


def test_size_cap_enforced():
    with pytest.raises(ValueError):
        count_linear_extensions(BatteryShape((12,) * 11, 0, 1), size_cap=120)
    assert count_linear_extensions(BatteryShape((2, 2), 1, 2), size_cap=5) == 5


def test_deterministic():
    shape = BatteryShape((4, 4, 4), 3, 2)
    assert count_linear_extensions(shape) == count_linear_extensions(shape)


def test_state_space_stays_modest():
    count, states = linear_extension_profile(BatteryShape((4,) * 4, 3, 2))
    binom_bound = 70  # C(8, 4) sub-diagrams of the 4x4 box
    assert states <= (3 + 1) * binom_bound + 1
    assert count == count_linear_extensions(BatteryShape((4,) * 4, 3, 2))


def test_non_rectangular_base():
    shape = BatteryShape((3, 1), 1, 3)
    assert count_linear_extensions(shape) == len(enumerate_syt(shape))


def test_line_convex_matches_battery_dp():
    for lam, a, k in [((2, 2), 1, 2), ((3, 2, 1), 0, 1), ((4, 4, 4), 3, 2), ((3, 1), 1, 3)]:
        shape = BatteryShape(lam, a, k)
        assert count_line_convex(shape.row_spans()) == count_linear_extensions(shape)


def test_line_convex_skew_shapes():
    # frozen from the determinant formula for skew counts: (4,3,2)/(2,1) has 61
    skew = SkewShape((4, 3, 2), (2, 1))
    assert count_line_convex(skew.row_spans()) == 61
    assert count_line_convex(skew.row_spans()) == _brute_force_extensions(skew.row_spans())


def test_line_convex_truncated_shapes():
    trunc = TruncatedShape(SkewShape((5, 5, 2, 1)), (2,))
    assert count_line_convex(trunc.row_spans()) == _brute_force_extensions(trunc.row_spans())
    assert count_line_convex(trunc.row_spans()) == 530


def test_profile_counts_skew_and_truncated_states():
    for shape in (SkewShape((6, 5, 4, 3), (2, 1)), TruncatedShape(SkewShape((5, 5, 2, 1)), (2,))):
        count, states = linear_extension_profile(shape)
        assert count == count_line_convex(shape.row_spans()) == count_linear_extensions(shape)
        assert states >= 1


def test_line_convex_empty():
    assert count_line_convex(()) == 1
    assert count_line_convex(((0, 0),)) == 1


def test_line_convex_refuses_a_column_with_a_gap():
    # column 0 holds rows 0 and 2 but not row 1, so no tableau rule fits it
    with pytest.raises(ValueError, match="column 1 is not contiguous"):
        count_line_convex(((0, 1), (1, 2), (0, 1)))
    with pytest.raises(ValueError, match="not contiguous"):
        count_line_convex(((0, 2), (0, 0), (0, 1)))
    assert count_line_convex(((0, 1), (0, 2), (0, 1))) == _brute_force_extensions(((0, 1), (0, 2), (0, 1)))
    # the check walks the occupied columns only, not every column from 0
    assert count_line_convex(((10**9, 10**9 + 2), (10**9, 10**9 + 1))) == 2


def test_enumerate_contains_reference_tableau():
    # hand-checked filling of the battery shape over a 4x3 rectangle, column 2
    tableaux = enumerate_syt(BatteryShape((4, 4, 4), 3, 2), cap=15)
    reference = BatteryTableau(
        battery=(2, 4, 6),
        rows=((1, 7, 9, 10), (3, 8, 11, 13), (5, 12, 14, 15)),
    )
    assert reference in tableaux
    assert len(tableaux) == count_linear_extensions(BatteryShape((4, 4, 4), 3, 2))


def test_enumerate_trivial_cases():
    only = enumerate_syt(BatteryShape((1,), 0, 1))
    assert only == [BatteryTableau((), ((1,),))]
    assert len(enumerate_syt(BatteryShape((2,), 1, 2))) == 2


def test_enumerate_size_cap():
    with pytest.raises(ValueError):
        enumerate_syt(BatteryShape((4, 4, 4), 3, 2))  # 15 cells over the default cap


def test_enumeration_sweep_matches_dp_and_validates():
    shapes = [
        BatteryShape((m,) * n, a, k)
        for m in range(1, 4)
        for n in range(1, 4)
        for a in range(0, 3)
        for k in range(1, m + 1)
        if m * n + a <= 10
    ]
    shapes += [BatteryShape((3, 1), 1, 3), BatteryShape((3, 2), 2, 2), BatteryShape((4, 2, 1), 1, 2)]
    for shape in shapes:
        tableaux = enumerate_syt(shape)
        assert len(tableaux) == count_linear_extensions(shape), shape
        for tab in tableaux:
            assert is_valid_tableau(shape, tab), (shape, tab)


def test_validity_checker_rejects_bad_fillings():
    shape = BatteryShape((2, 2), 1, 2)
    assert is_valid_tableau(shape, BatteryTableau((3,), ((1, 4), (2, 5))))
    # battery entry must be smaller than the cell it sits on
    assert not is_valid_tableau(shape, BatteryTableau((5,), ((1, 4), (2, 3))))
    # a decreasing row under the battery: the battery rule rejects it first
    assert not is_valid_tableau(shape, BatteryTableau((3,), ((4, 1), (2, 5))))
    # the next three pass every earlier check and fail only the rule named
    # rows must have the base's lengths
    assert not is_valid_tableau(shape, BatteryTableau((3,), ((1, 4, 6), (2,))))
    # the battery must increase upwards
    assert not is_valid_tableau(BatteryShape((2, 2), 2, 2), BatteryTableau((2, 1), ((3, 4), (5, 6))))
    # rows must increase
    assert not is_valid_tableau(shape, BatteryTableau((1,), ((3, 2), (4, 5))))
    # columns must increase
    assert not is_valid_tableau(shape, BatteryTableau((3,), ((2, 4), (1, 5))))
    # entries must be a bijection onto 1..size
    assert not is_valid_tableau(shape, BatteryTableau((3,), ((1, 4), (2, 6))))
    # shape mismatch
    assert not is_valid_tableau(shape, BatteryTableau((3, 4), ((1, 5), (2, 6))))


def _multinomial(parts):
    return factorial(sum(parts)) // prod(factorial(x) for x in parts)


def _extension_bound(spans):
    """Upper bound on the tableau count, independent of the DP: keeping only the
    row (or only the column) order can only add linear extensions."""
    rows = [e - s for s, e in spans if e > s]
    cols = {}
    for s, e in spans:
        for c in range(s, e):
            cols[c] = cols.get(c, 0) + 1
    return min(_multinomial(rows), _multinomial(list(cols.values())))


def _joined(values):
    return ",".join(map(str, values)) or "0"  # "0" is the grammar's empty partition


@st.composite
def line_convex_shapes(draw):
    """Skew shapes and truncated straight shapes of at most 12 cells, with the
    expression the CLI parses to each and the cells' row spans, built here from
    the definitions rather than by ``row_spans()``."""
    outer = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)), reverse=True)
    if draw(st.booleans()):
        # each drawn row fits under its outer row, so the sorted rows do too
        inner = sorted((draw(st.integers(0, row)) for row in outer), reverse=True)
        shape, expr = SkewShape(outer, inner), f"skew:{_joined(outer)}/{_joined(inner)}"
        spans = [(inner[i], row) for i, row in enumerate(outer)]
    else:
        cut = sorted(draw(st.lists(st.integers(0, 4), max_size=len(outer))), reverse=True)
        try:
            shape = TruncatedShape(SkewShape(outer), cut)
        except ValueError:
            reject()  # a cut longer than its row, or columns no longer contiguous
        expr = f"truncated:{_joined(outer)}\\{_joined(cut)}"
        cut += [0] * (len(outer) - len(cut))
        spans = [(0, row - c) for row, c in zip(outer, cut)]
    assume(sum(e - s for s, e in spans) <= 12)
    # the brute force walks every extension; 20,000 of them take about 0.1 s
    assume(_extension_bound(spans) <= 20_000)
    return shape, expr, spans


@settings(max_examples=100, deadline=None)
@given(line_convex_shapes())
def test_dp_matches_brute_force_on_skew_and_truncated_shapes(case):
    shape, expr, spans = case
    count = _brute_force_extensions(spans)
    assert count_linear_extensions(shape) == count, expr
    assert cli.parse_shape_expr(expr) == shape
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(["count", expr, "--method", "dp"]) == 0
    assert out.getvalue() == f"{count}\n"


def _shape_cells(shape):
    """The cells of a shape as (row, column) pairs, from its fields rather than
    from ``row_spans()``: a battery's stacked cells take rows -1..-a."""
    if isinstance(shape, BatteryShape):
        base = [(r, c) for r, length in enumerate(shape.lam) for c in range(length)]
        return base + [(-j, shape.k - 1) for j in range(1, shape.a + 1)]
    if isinstance(shape, TruncatedShape):
        outer, inner, cut = shape.base.outer, shape.base.inner, shape.truncation
    else:
        outer, inner, cut = shape.outer, shape.inner, ()
    inner += (0,) * (len(outer) - len(inner))
    cut += (0,) * (len(outer) - len(cut))
    return [(r, c) for r, row in enumerate(outer) for c in range(inner[r], row - cut[r])]


def _count_downsets(cells, most=None):
    """Brute force: the subsets of cells closed under taking the left and the
    upper neighbour, which generate the order of a line-convex diagram; with
    ``most``, only those of at most that many cells."""
    index = {cell: j for j, cell in enumerate(cells)}
    below = [sum(1 << index[p] for p in ((r, c - 1), (r - 1, c)) if p in index) for r, c in cells]
    return sum(
        all(subset & need == need for j, need in enumerate(below) if subset >> j & 1)
        for subset in range(1 << len(cells))
        if most is None or subset.bit_count() <= most
    )


def _rectangle_cut(m, n, a, k):
    """The level a battery over the m-by-n rectangle is split at: the middle,
    or past the n(k-1) cells an ideal leaving (1, k) out can hold when the
    battery has cells."""
    middle = (m * n + 1) // 2
    return max(middle, n * (k - 1) + 1) if a else middle


@st.composite
def small_shapes(draw):
    """Batteries over any base, skew and truncated (skew) shapes of at most 12 cells."""
    outer = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)), reverse=True)
    kind = draw(st.sampled_from(["battery", "skew", "truncated"]))
    try:
        if kind == "battery":
            shape = BatteryShape(outer, draw(st.integers(0, 4)), draw(st.integers(1, outer[0])))
        else:
            inner = sorted((draw(st.integers(0, row)) for row in outer), reverse=True)
            shape = SkewShape(outer, inner)
            if kind == "truncated":
                cut = sorted(draw(st.lists(st.integers(0, 4), max_size=len(outer))), reverse=True)
                shape = TruncatedShape(shape, cut)
    except ValueError:
        reject()  # a cut longer than its row, or columns no longer contiguous
    assume(shape.size <= 12)
    return shape


@settings(max_examples=100, deadline=None)
@given(small_shapes())
@example(cli.parse_shape_expr("truncated:3,3\\3,1"))  # an empty first row
@example(cli.parse_shape_expr("skew:3,3/3"))
@example(cli.parse_shape_expr("skew:4,3,2/3,3"))  # an empty middle row
@example(BatteryShape((2, 1), 3, 2))
@example(BatteryShape((3, 3), 2, 2))  # a rectangle base: its ideals up to the cut
@example(BatteryShape((4,), 1, 4))  # the cut past the middle, at the whole row
@example(BatteryShape((2, 2, 2), 0, 1))  # a straight rectangle
def test_dp_visits_exactly_the_order_ideals(shape):
    cells = _shape_cells(shape)
    assert len(cells) == shape.size
    if isinstance(shape, BatteryShape) and shape.is_rectangle():
        m, n = shape.lam[0], len(shape.lam)
        base = [(r, c) for r in range(n) for c in range(m)]
        expected = _count_downsets(base, _rectangle_cut(m, n, shape.a, shape.k))
    else:
        expected = _count_downsets(cells)
    assert linear_extension_profile(shape)[1] == expected, shape


def test_dp_profile_pinned_on_the_largest_verify_battery():
    assert linear_extension_profile(BatteryShape((11,) * 8, 3, 6)) == (
        29032714351326166831529458339421513690767590218938080000, 39006)


@st.composite
def rectangle_batteries(draw):
    """Batteries over an m-by-n rectangle with m, n <= 7, a <= 4 and any k."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return BatteryShape((m,) * n, draw(st.integers(0, 4)), draw(st.integers(1, m)))


@settings(max_examples=100, deadline=None)
@given(rectangle_batteries())
@example(BatteryShape((1,) * 6, 3, 1))  # one column: a chain
@example(BatteryShape((6,), 3, 4))  # one row
@example(BatteryShape((5,) * 4, 2, 1))  # k = 1: every ideal but the empty one holds (1, 1)
@example(BatteryShape((5,) * 4, 2, 5))  # k = m
@example(BatteryShape((6,) * 5, 0, 3))  # no battery cells: g is f
@example(BatteryShape((5,) * 11, 2, 4))  # the cut, 34 cells, past the middle, 28
def test_rectangle_walk_matches_the_full_walk(shape):
    spans = _capped(shape.row_spans(), 120)
    count, states = linear_extension_profile(shape)
    assert count == count_line_convex(spans) == span_profile_by_two_tests(spans)[0], shape
    assert states <= _span_profile(spans)[1], shape


@pytest.mark.parametrize("expr, profile", [
    ("partition:11,11,10,10,10,4,3,1", (183265040436987708842646401942544000, 36822)),
    ("skew:12,12,11,10,5,2,1/3,3,2", (628787340090105117811718400, 17674)),
    ("truncated:10,10,9,9,8,6,2\\2", (31014919131542467234497384000, 8576)),
    ("battery:part:11,11,9,4,4,2,a=4,k=8", (16324202273500604439131175, 10395)),
], ids=["partition", "skew", "truncated", "battery"])
def test_dp_profile_pinned_on_the_largest_shape_of_each_kind(expr, profile):
    # the largest shape of each DP kind the dp-verify benchmark workload counts
    shape = cli._with_spans(cli.parse_shape_expr(expr))
    assert linear_extension_profile(shape) == profile


@st.composite
def larger_span_shapes(draw):
    """Batteries over any base with a <= 4, skew and truncated shapes of at most
    40 cells, empty rows included, with at most 200,000 digit combinations (a
    bound on the DP's states)."""
    outer = sorted((draw(st.integers(1, 9)) for _ in range(draw(st.integers(1, 8)))), reverse=True)
    kind = draw(st.sampled_from(["battery", "skew", "truncated"]))
    try:
        if kind == "battery":
            shape = BatteryShape(outer, draw(st.integers(0, 4)), draw(st.integers(1, outer[0])))
        else:
            # an inner row as long as its outer row leaves that row empty
            inner = sorted((draw(st.integers(0, row)) for row in outer), reverse=True)
            shape = SkewShape(outer, inner)
            if kind == "truncated":
                cut = sorted(draw(st.lists(st.integers(0, 6), max_size=len(outer))), reverse=True)
                shape = TruncatedShape(shape, cut)
    except ValueError:
        reject()  # a cut longer than its row, or columns no longer contiguous
    assume(shape.size <= 40)
    spans = _capped(shape.row_spans(), 40)
    assume(prod(e - s + 1 for s, e in spans) <= 200_000)
    return spans


@settings(max_examples=150, deadline=None)
@given(larger_span_shapes())
@example(_capped(SkewShape((4, 3, 2), (3, 3)).row_spans(), 40))  # an empty middle row
@example(_capped(TruncatedShape(SkewShape((3, 3)), (3, 1)).row_spans(), 40))  # an empty first row
@example(_capped(SkewShape((5, 5), (5, 5)).row_spans(), 40))  # no cells at all
def test_dp_matches_the_two_test_reference(spans):
    assert _span_profile(spans) == span_profile_by_two_tests(spans), spans


def test_conjugate_spans_known_layouts():
    # the stacked cell joins column 1's row; the empty columns 1 and 2 are dropped
    assert conjugate_spans(BatteryShape((2, 2), 1, 2).row_spans()) == ((1, 3), (0, 3))
    assert conjugate_spans(SkewShape((5, 5, 1), (3, 3)).row_spans()) == ((2, 3), (0, 2), (0, 2))
    assert conjugate_spans(SkewShape((3, 3), (3, 1)).row_spans()) == ((1, 2), (1, 2))  # row 0 empty
    assert conjugate_spans(((10**9, 10**9 + 2), (10**9, 10**9 + 1))) == ((0, 2), (0, 1))
    assert conjugate_spans(()) == conjugate_spans(((4, 4),)) == ()


def _spans_of(expr):
    return _capped(cli._with_spans(cli.parse_shape_expr(expr)).row_spans(), 120)


@settings(max_examples=150, deadline=None)
@given(larger_span_shapes())
@example(_spans_of("skew:5,5,1/3,3"))  # disconnected, with empty columns between
@example(_spans_of("skew:7,7,4,4,1,1/5,5,2,2"))  # three parts, empty columns between each
@example(_spans_of("skew:4,3,2/3,3"))  # an empty middle row
@example(_spans_of("battery:part:3,1,a=4,k=3"))  # stacked cells over a one-row column
@example(_spans_of("skew:5,5/5,5"))  # no cells at all
# shapes no formula counts; the last is the dp-verify workload's largest battery
# over a base other than a rectangle
@example(_spans_of("skew:12,12,11,10/1"))
@example(_spans_of("truncated:5,5,2,1\\2"))
@example(_spans_of("battery:part:5,4,3,a=2,k=2"))
@example(_spans_of("battery:part:11,11,9,4,4,2,a=4,k=8"))
def test_conjugate_layout_has_the_same_tableaux_and_ideals(spans):
    assert _span_profile(conjugate_spans(spans)) == _span_profile(spans), spans
