"""Frobenius's formula in prime exponents, the ``--verify`` partner of straight
shapes: equal to the hook length formula and the DP, exact at sizes far past
the DP's cap, independent of the hook length route, and loaded only by a call
that verifies a straight shape."""

import ast
import hashlib
import inspect
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import battery_syt
from battery_syt import cli, frobenius
from battery_syt.frobenius import syt_count_frobenius
from battery_syt.oracle import count_linear_extensions
from battery_syt.shapes import BatteryShape, syt_count_straight
from conftest import all_partitions_up_to, run_fresh


def partitions(max_rows, max_width):
    return st.lists(st.integers(1, max_width), min_size=1, max_size=max_rows).map(
        lambda rows: tuple(sorted(rows, reverse=True)))


def test_small_counts():
    assert syt_count_frobenius(()) == 1
    assert syt_count_frobenius((1,)) == 1
    assert syt_count_frobenius((3, 2, 1)) == 16
    assert syt_count_frobenius((4, 4, 4)) == 462
    for p in all_partitions_up_to(10):
        assert syt_count_frobenius(p) == syt_count_straight(p), p


# at most 7 rows keeps each DP walk under C(19, 7) ideals
@settings(max_examples=50, deadline=None)
@given(partitions(7, 12))
@example((12,) * 10)  # a rectangle at the size cap: the DP meets in the middle
@example((11, 11, 10, 10, 10, 4, 3, 1))  # the dp-verify workload's largest partition
@example((1,) * 12)
def test_frobenius_equals_hlf_and_dp_under_the_cap(p):
    assert syt_count_frobenius(p) == syt_count_straight(p) == count_linear_extensions(BatteryShape(p, 0, 1))


@settings(max_examples=60, deadline=None)
@given(partitions(60, 60))
@example((60,) * 60)
@example(tuple(range(60, 0, -1)))
@example((60,) + (1,) * 59)  # a hook: every difference between rows 2.. is small
def test_frobenius_equals_hlf_up_to_sixty_rows_and_columns(p):
    assert syt_count_frobenius(p) == syt_count_straight(p)


@pytest.mark.parametrize("shape, digest", [
    # the sha256 of the decimal count and its newline, as the CLI prints it
    ((200,) * 200, "417b29d49070c3fa90f8edd7515d319ccdd874cca1dc8e3129d5386fd96855a8"),
    (tuple(range(400, 0, -1)), "bc80a28e685239f568a176a690fa233b73c5f4987f42fb80f6540ebfd70a37ca"),
], ids=["rect200x200", "staircase400"])
def test_pinned_large_counts(shape, digest, int_str_limit):
    int_str_limit(0)
    assert hashlib.sha256(f"{syt_count_frobenius(shape)}\n".encode()).hexdigest() == digest


def test_one_long_column():
    # 100,000 rows: the pair histogram holds about 5·10^9 pairs in one product
    assert syt_count_frobenius((1,) * 100_000) == 1


@pytest.mark.parametrize("p, message", [
    ((1, 3), "row lengths must be weakly decreasing, got 1 before 3"),
    ((3, 0, 1), "row lengths must be weakly decreasing, got 0 before 1"),
    ((3, -1), "row lengths must be positive, got -1 at row 2"),
    # a trailing zero row is dropped, and the negative row before it is refused
    ((3, -1, 0), "row lengths must be positive, got -1 at row 2"),
    ((2, 2.5), "expected an integer, got 2.5"),
])
def test_a_malformed_partition_is_refused_where_it_enters(p, message):
    # not an OverflowError, which the CLI would report as a shape too large,
    # nor an IndexError from the tables
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        syt_count_frobenius(p)
    assert syt_count_frobenius((2, 2.0)) == syt_count_frobenius([2, 2]) == 2


def test_both_straight_routes_drop_trailing_zero_rows_and_refuse_the_same_rows():
    # as shapes.as_partition reads a partition: a zero row at the end is no
    # row, and a zero or negative row before a positive one is refused
    for p, count in (((3, 0), 1), ((2, 1, 0, 0), 2), ((0,), 1)):
        assert syt_count_straight(p) == syt_count_frobenius(p) == count, p
    for p in ((3, 0, 1), (3, -1)):
        for route in (syt_count_straight, syt_count_frobenius):
            with pytest.raises(ValueError, match="^row lengths must be"):
                route(p)


def test_a_size_past_machine_size_overflows_before_any_table():
    with pytest.raises(OverflowError):
        syt_count_frobenius((sys.maxsize + 1,))


def _dropping_one_pair(monkeypatch):
    """Patch the pair histogram to lose one pair at its largest difference."""
    counts_of = frobenius._difference_counts

    def dropped(l):
        counts = counts_of(l)
        counts[max(x for x, c in enumerate(counts) if c)] -= 1
        return counts

    monkeypatch.setattr(frobenius, "_difference_counts", dropped)


def test_a_lost_pair_is_a_negative_exponent(capsys, monkeypatch):
    # (1,1,1) has l = (3, 2, 1) and one tableau: 3! · 1·1·2 / (3! 2! 1!). Without
    # the pair at difference 2 the prime 2 has exponent -1
    _dropping_one_pair(monkeypatch)
    assert cli.run(["count", "partition:1,1,1", "--verify"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inconsistent count from frobenius: prime 2 has exponent -1")


def test_a_lost_pair_is_a_verify_mismatch(capsys, monkeypatch):
    _dropping_one_pair(monkeypatch)
    assert cli.run(["count", "partition:11,11,10,10,10,4,3,1", "--verify"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification mismatch: hlf gives 183265040436987708842646401942544000, frobenius gives" in captured.err


def test_the_route_shares_no_code_with_the_hook_length_formula():
    # it imports only the package's export table, balanced product and sieve,
    # and names no hook, conjugate, factorial or DP code
    tree = ast.parse(Path(frobenius.__file__).read_text())
    imported = {
        (node.module, node.level, alias.name) if isinstance(node, ast.ImportFrom) else (alias.name, 0, None)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {(None, 1, "_EXPORTS"), (None, 1, "_primes"), (None, 1, "_product")}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"hook_lengths", "syt_count_straight", "conjugate", "factorial", "oracle", "shapes"}
    # no big integer is divided: the only divisions are of n by a prime power
    # (Legendre's formula), and, in the product, of a list length by 2
    sources = [tree, *(ast.parse(inspect.getsource(f)) for f in (battery_syt._product, battery_syt._primes))]
    divisions = {ast.unparse(node) for source in sources for node in ast.walk(source)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod))}
    assert divisions == {"n // power", "len(values) % 2"}


def test_only_a_call_that_verifies_a_straight_shape_loads_the_route():
    out, loaded = run_fresh(
        "import battery_syt.cli as cli\n"
        "cli.main(['count', 'battery:rect:11x7,a=1,k=6', '--verify'])\n"
    )
    assert "battery_syt.oracle" in loaded and "battery_syt.frobenius" not in loaded
    # a partition's partner is Frobenius's formula: no DP walk, no oracle import
    out, loaded = run_fresh(
        "import battery_syt.cli as cli\n"
        "cli.main(['count', 'partition:11,11,10,10,10,4,3,1', '--verify'])\n"
    )
    assert out[0] == "183265040436987708842646401942544000"
    assert "battery_syt.frobenius" in loaded and "battery_syt.oracle" not in loaded


@pytest.mark.parametrize("expr, digest", [
    ("rect:200x200", "417b29d49070c3fa90f8edd7515d319ccdd874cca1dc8e3129d5386fd96855a8"),
    ("partition:130", hashlib.sha256(b"1\n").hexdigest()),
], ids=["rect200x200", "partition130"])
def test_verify_above_the_size_cap(expr, digest, capsys):
    assert cli.run(["count", expr, "--verify"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == "verified: hlf == frobenius\n"


def test_the_dp_is_checked_by_frobenius_on_a_straight_shape(capsys):
    # the rectangle at the size cap: the DP's middle cut, checked by the formula
    assert cli.run(["count", "rect:12x10", "--method", "dp", "--verify"]) == 0
    assert capsys.readouterr() == (
        "50106797649691113217459397039765454644914995408023080761564114499343647939320000\n",
        "verified: dp == frobenius\n",
    )
