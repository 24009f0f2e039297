import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from battery_syt import cli, counting
from battery_syt.counting import NonIntegerCountError
from battery_syt.hypergeom import ZeroDenominatorFactorError
from battery_syt.shapes import BatteryShape, SkewShape, TruncatedShape
from conftest import run_fresh

GOLDEN_FACTORED = (
    "2^5*3^2*5^2*11*13*17^2*19^3*23^2*29*31*37^2*41*3361178017*2839893182041"
)


def test_parse_partition():
    assert cli.parse_shape_expr("partition:5,3,1") == (5, 3, 1)
    assert cli.parse_shape_expr("rect:3x2") == (3, 3)


def test_parse_battery():
    shape = cli.parse_shape_expr("battery:rect:11x7,a=1,k=6")
    assert shape == BatteryShape((11,) * 7, 1, 6)
    assert cli.parse_shape_expr("battery:part:4,4,4,a=3,k=2") == BatteryShape((4, 4, 4), 3, 2)


def test_parse_skew_and_truncated():
    assert cli.parse_shape_expr("skew:4,3,2/2,1") == SkewShape((4, 3, 2), (2, 1))
    assert cli.parse_shape_expr("truncated:5,5,2,1\\2") == TruncatedShape(
        SkewShape((5, 5, 2, 1)), (2,)
    )


def test_parse_errors_carry_position_and_reason():
    with pytest.raises(cli.ShapeParseError) as err:
        cli.parse_shape_expr("partition:3,x")
    assert err.value.position == 12
    assert "integer" in str(err.value)
    for bad in ("nonsense", "blob:1,2", "battery:rect:2x2,a=1", "rect:5",
                "partition:3,5", "battery:part:2,2,a=2,k=3"):
        with pytest.raises(cli.ShapeParseError):
            cli.parse_shape_expr(bad)
    # the skew and truncated branches, and a constructor's ValueError at its field offset
    for bad, position, message in (
        ("skew:4,3/x", 9, "expected an integer, got 'x'"),
        ("skew:4,3/1,1,1", 5, "inner shape (1, 1, 1) has more rows than outer (4, 3)"),
        ("truncated:5,5,2,1\\9", 10, "cannot delete 9 cells from row 1 of length 5"),
        ("skew:3,2", 5, "expected outer/inner"),
        ("truncated:3,3", 10, "expected outer\\trunc"),
        ("battery:rect:2x2,a=1,k=x", 21, "expected an integer for k=, got 'x'"),
        ("rect:axb", 5, "expected MxN with integer sides, got 'axb'"),
        ("battery:rect:2x2,a1,k=2", 17, "expected a=A or k=K, got 'a1'"),
        ("battery:rect:2x2,a=1,a=2", 17, "both a= and k= are required"),
        ("battery:rect:3x3,k=2,a=1,a=2", 25, "a= given twice"),
        ("battery:rect:3x3,a=1,k=2,a=2", 25, "a= given twice"),
        ("battery:rect:3x3,k=1,a=1,k=2", 25, "k= given twice"),
        ("battery:rect:3x3,x=1,a=1,k=2", 17, "expected a=A or k=K, got 'x=1'"),
        ("battery:2x2,a=1,k=2", 8, "battery base must start with rect: or part:"),
        ("truncated:2\\1,1", 10, "truncation has more rows than the base shape"),
        # a side too large for a tuple length: OverflowError past sys.maxsize,
        # MemoryError just below it, both before anything is allocated
        ("rect:1x9223372036854775808", 5, "rectangle has too many rows, got 1x9223372036854775808"),
        ("rect:1x9223372036854775807", 5, "rectangle has too many rows, got 1x9223372036854775807"),
        (
            "battery:rect:1x9223372036854775808,a=1,k=1",
            13,
            "rectangle has too many rows, got 1x9223372036854775808",
        ),
    ):
        with pytest.raises(cli.ShapeParseError) as err:
            cli.parse_shape_expr(bad)
        assert (err.value.position, str(err.value)) == (position, f"at position {position}: {message}")


def test_documented_invocation_golden_factored(capsys):
    status = cli.run(["count", "battery:rect:11x7,a=1,k=6", "--output", "factored"])
    assert status == 0
    assert capsys.readouterr().out.strip() == GOLDEN_FACTORED


def test_documented_invocation_partition(capsys):
    status = cli.run(["count", "partition:3,2,1"])
    assert status == 0
    assert capsys.readouterr().out.strip() == "16"


def test_documented_invocation_verified_dp(capsys):
    for argv, pair in (
        (["battery:rect:2x2,a=1,k=2", "--method", "dp"], "dp == hyper"),
        # a battery over another base is checked by the DP on its conjugate layout
        (["battery:part:2,1,a=1,k=2"], "dp == conjugate"),
    ):
        status = cli.run(["count", *argv, "--verify"])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out.strip() == "5"
        assert f"verified: {pair}" in captured.err


def test_json_output_round_trips(capsys):
    status = cli.run(["count", "battery:rect:3x2,a=1,k=2", "--output", "json", "--verify"])
    assert status == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "shape", "method", "count", "factorization", "verified_methods", "elapsed_ms",
    }
    count = int(report["count"])
    assert count == 12
    rebuilt = 1
    for p, e in report["factorization"]:
        rebuilt *= p ** e
    assert rebuilt == count
    assert report["shape"] == "battery:rect:3x2,a=1,k=2"
    assert report["method"] == "closed"
    assert report["verified_methods"] == ["closed", "dp"]
    assert report["elapsed_ms"] >= 0


def test_cli_import_leaves_dataclasses_inspect_and_json_unloaded():
    # every call pays for what importing the CLI loads: the CLI, the shape
    # types and Record, and none of the routes or argparse, gettext and
    # locale; json waits for --output json
    out, loaded = run_fresh("import battery_syt.cli")
    assert loaded == {"battery_syt", "battery_syt.cli", "battery_syt.shapes"}
    out, loaded = run_fresh(
        "import battery_syt.cli as cli\n"
        "cli.run(['count', 'battery:rect:3x2,a=1,k=2', '--output', 'json'])\n"
    )
    report = json.loads(out[0])
    assert (report["count"], report["factorization"]) == ("12", [[2, 2], [3, 1]])
    assert {"json", "battery_syt.arith"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def test_a_count_without_site_leaves_typing_unloaded():
    # site may load typing (and with it re, enum, functools and collections)
    # for its .pth files; the package must not, or a start-up without them pays
    # for it. Annotations name Callable and Iterable as strings, so nothing
    # imports collections.abc
    probe = (
        "import sys\n"
        "import battery_syt.cli as cli\n"
        "print('typing' in sys.modules, 'collections' in sys.modules)\n"
        "cli.run(['count', 'battery:rect:14x14,a=5,k=6'])\n"
        "print('typing' in sys.modules, 'collections' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert out == ["False False", str(counting.count_general(14, 14, 5, 6)), "False False"]


@pytest.mark.parametrize(
    "argv, loads, leaves",
    [
        # a decimal count takes its binomials from math and never loads arith;
        # no closed-form case loads the series engine
        (["battery:rect:5x4,a=1,k=2"], {"battery_syt.counting"},
         {"battery_syt.arith", "battery_syt.hypergeom", "battery_syt.oracle", "fractions"}),
        (["battery:rect:5x4,a=2,k=2"], {"battery_syt.counting"},
         {"battery_syt.arith", "battery_syt.hypergeom", "battery_syt.oracle", "fractions"}),
        (["battery:rect:5x4,a=3,k=2"], {"battery_syt.counting"},
         {"battery_syt.arith", "battery_syt.hypergeom", "battery_syt.oracle", "fractions"}),
        (["battery:rect:5x2,a=2,k=3"], {"battery_syt.counting"},
         {"battery_syt.arith", "battery_syt.hypergeom", "battery_syt.oracle", "fractions"}),
        # general, after the catalog lookup
        (["battery:rect:14x14,a=5,k=6"], {"battery_syt.counting"},
         {"battery_syt.arith", "battery_syt.hypergeom", "battery_syt.oracle", "fractions",
          "decimal"}),
        (["skew:12,12,11,10/1", "--method", "dp"], {"battery_syt.oracle"},
         {"battery_syt.counting", "battery_syt.arith", "battery_syt.hypergeom", "fractions",
          "decimal"}),
        # a battery over a rectangle walks half its base's ideals, weighted by math.comb
        (["battery:rect:6x5,a=2,k=3", "--method", "dp"], {"battery_syt.oracle"},
         {"battery_syt.counting", "battery_syt.arith", "battery_syt.hypergeom", "fractions",
          "decimal"}),
        # the partner of a shape only the DP counts is the DP again, on the conjugate layout
        (["skew:12,12,11,10/1", "--verify"], {"battery_syt.oracle"},
         {"battery_syt.counting", "battery_syt.arith", "battery_syt.hypergeom", "fractions",
          "decimal"}),
        # the series engine sums in plain integers, as a primary route and as
        # the partner of general above the DP cap
        (["battery:rect:8x9,a=5,k=3", "--method", "hyper"],
         {"battery_syt.counting", "battery_syt.hypergeom"},
         {"battery_syt.arith", "battery_syt.oracle", "fractions", "decimal", "numbers"}),
        (["battery:rect:12x13,a=4,k=5", "--verify"],
         {"battery_syt.counting", "battery_syt.hypergeom"},
         {"battery_syt.arith", "battery_syt.oracle", "fractions", "decimal", "numbers"}),
        (["partition:5,3,1"], set(),
         {"battery_syt.counting", "battery_syt.arith", "battery_syt.oracle", "fractions"}),
        # factored output is what loads the factoring module
        (["battery:rect:14x14,a=5,k=6", "--output", "factored"],
         {"battery_syt.counting", "battery_syt.arith"},
         {"battery_syt.hypergeom", "battery_syt.oracle", "fractions"}),
    ],
    ids=["closed", "closed-k2-a2", "closed-k2-a3", "closed-k3-n2", "general", "dp", "dp-rectangle",
         "dp-verify", "hyper", "general-verify", "hlf", "factored"],
)
def test_a_count_loads_only_its_route(argv, loads, leaves, capsys):
    out, loaded = run_fresh(f"import battery_syt.cli as cli\ncli.run(['count', *{argv!r}])")
    assert cli.run(["count", *argv]) == 0
    assert out == capsys.readouterr().out.splitlines()
    assert loads <= loaded
    assert not (leaves | {"json", "dataclasses", "inspect", "argparse", "gettext", "locale"}) & loaded


def test_route_bindings_stay_rebindable_after_their_first_call(monkeypatch):
    # a route loads on its first call through the CLI's module binding, which
    # stays in place: a wrapper put there (as span tracing does) sees every call
    calls = []
    original = cli.count_general
    monkeypatch.setattr(cli, "count_general", lambda *args: calls.append(args) or original(*args))
    for _ in range(2):
        assert cli.run(["count", "battery:rect:5x5,a=2,k=4"]) == 0
    assert calls == [(5, 5, 2, 4)] * 2
    assert original(5, 5, 2, 4) == counting.count_general(5, 5, 2, 4)


def test_parse_failure_exits_2(capsys):
    assert cli.run(["count", "partition:3,5"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert cli.run(["count", "battery:rect:2x2,a=1,k=9"]) == 2


def test_bad_flags_exit_2(capsys):
    assert cli.run(["count", "partition:3,2,1", "--method", "bogus"]) == 2
    assert cli.run([]) == 2


@pytest.mark.parametrize("argv", [
    ["battery:rect:3x2,a=1,k=2", "--method", "dp", "--output", "factored", "--verify", "--size-cap", "{cap}"],
    ["battery:rect:3x2,a=1,k=2", "--method=dp", "--output=factored", "--verify", "--size-cap={cap}"],
    ["--method", "dp", "--output=factored", "--verify", "--size-cap", "{cap}", "battery:rect:3x2,a=1,k=2"],
    ["--size-cap={cap}", "--method=dp", "battery:rect:3x2,a=1,k=2", "--verify", "--output", "factored"],
    # a repeated option keeps its last value
    ["battery:rect:3x2,a=1,k=2", "--method=hyper", "--method=dp", "--output=factored", "--verify",
     "--size-cap", "{cap}"],
], ids=["spaced", "joined", "before", "around", "repeated"])
def test_cli_accepts_both_value_forms_on_either_side_of_the_shape(argv, capsys):
    # the shape has 7 cells: a size cap of 7 lets dp count it, 6 refuses it
    assert cli.run(["count", *(arg.format(cap=7) for arg in argv)]) == 0
    assert capsys.readouterr() == ("2^2*3\n", "verified: dp == hyper\n")
    assert cli.run(["count", *(arg.format(cap=6) for arg in argv)]) == 3
    assert capsys.readouterr() == (
        "", "error: method 'dp' not applicable: it needs at most 6 cells (--size-cap), the shape has 7\n"
    )


@pytest.mark.parametrize("argv, why", [
    (["count", "rect:2x2", "--bogus"], "unrecognized option '--bogus'"),
    # no prefix abbreviations
    (["count", "rect:2x2", "--meth", "dp"], "unrecognized option '--meth'"),
    (["count", "rect:2x2", "-5"], "unrecognized option '-5'"),
    (["count", "rect:2x2", "--method"], "argument --method: expected a value"),
    (["count", "rect:2x2", "--method", "bogus"],
     "argument --method: invalid choice 'bogus' (choose from auto, hyper, general, closed, dp)"),
    # no route is named enum
    (["count", "rect:2x2", "--method=enum"],
     "argument --method: invalid choice 'enum' (choose from auto, hyper, general, closed, dp)"),
    # conjugate is a registry route, but only a --verify partner
    (["count", "rect:2x2", "--method=conjugate"],
     "argument --method: invalid choice 'conjugate' (choose from auto, hyper, general, closed, dp)"),
    (["count", "rect:2x2", "--output", "xml"],
     "argument --output: invalid choice 'xml' (choose from decimal, factored, json)"),
    (["count", "rect:2x2", "--size-cap", "-1"], "argument --size-cap: must be non-negative, got -1"),
    (["count", "rect:2x2", "--size-cap=-1"], "argument --size-cap: must be non-negative, got -1"),
    (["count", "rect:2x2", "--size-cap=1.5"], "argument --size-cap: expected an integer, got '1.5'"),
    (["count", "rect:2x2", "--size-cap"], "argument --size-cap: expected a value"),
    (["count", "rect:2x2", "--verify=yes"], "argument --verify: takes no value, got 'yes'"),
    ([], "the command must be count, none given"),
    (["rect:2x2"], "the command must be count, got 'rect:2x2'"),
    (["count"], "expected one SHAPE, got none"),
    (["count", "--verify"], "expected one SHAPE, got none"),
    (["count", "rect:2x2", "rect:3x3"], "expected one SHAPE, got 'rect:2x2', 'rect:3x3'"),
], ids=["unknown", "abbreviated", "dash-number", "method-missing", "method-bad", "method-enum",
        "method-conjugate", "output-bad", "cap-negative", "cap-negative-joined", "cap-not-int", "cap-missing",
        "flag-value", "no-command", "other-command", "no-shape", "only-a-flag", "two-shapes"])
def test_cli_refuses_a_malformed_command_line_with_usage_and_exit_2(argv, why, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{cli.USAGE}\nbattery-syt: error: {why}\n"
    assert captured.err.startswith("usage: battery-syt count SHAPE")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["count", "--help"], ["count", "rect:2x2", "-h"]])
def test_help_exits_0_and_names_every_option(argv, capsys):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == cli.HELP
    assert captured.out.startswith("usage: battery-syt count SHAPE")
    for option in cli._OPTIONS:
        assert f"\n  {option} " in captured.out, option


def test_method_inapplicable_exits_3(capsys):
    assert cli.run(["count", "skew:3,2/1", "--method", "hyper"]) == 3
    assert "not applicable" in capsys.readouterr().err
    assert cli.run(["count", "battery:part:3,1,a=1,k=3", "--method", "general"]) == 3
    assert cli.run(["count", "partition:3,2,1", "--method", "closed"]) == 3


def test_size_cap_flag(capsys):
    assert cli.run(["count", "partition:2,1", "--size-cap", "-5"]) == 2
    assert cli.run(["count", "rect:3x3", "--method", "dp", "--size-cap", "-5"]) == 2
    assert cli.run(["count", "rect:4x4", "--method", "dp", "--size-cap", "10"]) == 3
    assert cli.run(["count", "rect:4x4", "--method", "dp", "--size-cap", "16"]) == 0
    assert capsys.readouterr().out.strip() == "24024"


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setitem(cli.METHODS, "hyper", lambda shape, size_cap: 999)
    status = cli.run(["count", "battery:rect:2x2,a=1,k=2", "--method", "dp", "--verify"])
    assert status == 4
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [NonIntegerCountError, ZeroDenominatorFactorError])
def test_arithmetic_fault_in_a_count_exits_4(capsys, monkeypatch, fault):
    def faulty(shape, size_cap):
        raise fault("injected")

    monkeypatch.setitem(cli.METHODS, "hyper", faulty)
    # as the primary count, then as the verify partner of dp
    for argv in (["battery:rect:5x4,a=4,k=4", "--method", "hyper"],
                 ["battery:rect:2x2,a=1,k=2", "--method", "dp", "--verify"]):
        assert cli.run(["count", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: inconsistent count from hyper: injected" in captured.err


@pytest.mark.parametrize("expr, route", [
    ("battery:rect:99999999999999999999x1,a=1,k=1", "general"),
    ("battery:rect:99999999999999999999x2,a=1,k=2", "closed"),
])
def test_a_rectangle_past_machine_size_exits_3(capsys, expr, route):
    # math.comb refuses an argument past machine size with OverflowError: the
    # route cannot count the shape, which is no inconsistent count
    assert cli.run(["count", expr]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: method {route!r} cannot count a shape this large: ")


def test_overflow_in_a_count_exits_3(capsys, monkeypatch):
    def overflowing(shape, size_cap):
        raise OverflowError("injected")

    monkeypatch.setitem(cli.METHODS, "hyper", overflowing)
    # as the primary count, then as the verify partner of dp
    for argv in (["battery:rect:5x4,a=4,k=4", "--method", "hyper"],
                 ["battery:rect:2x2,a=1,k=2", "--method", "dp", "--verify"]):
        assert cli.run(["count", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: method 'hyper' cannot count a shape this large: injected" in captured.err


def _count_in_a_fresh_process(*args, timeout=5):
    """``battery-syt count *args`` in a fresh process, so that work walking
    every cell fails by the timeout rather than hanging the suite. Its stdout
    is block-buffered, as a pipe's writer is unless PYTHONUNBUFFERED is set."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "battery_syt.cli", "count", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _masked(out: str) -> str:
    """``out`` with the JSON report's timing, which differs between calls, zeroed."""
    return re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out)


@pytest.mark.parametrize("args, status", [
    (["battery:rect:11x7,a=1,k=6"], 0),
    (["battery:rect:11x7,a=1,k=6", "--output", "factored"], 0),
    (["battery:rect:7x11,a=1,k=4", "--output", "json"], 0),
    (["battery:rect:5x4,a=2,k=3", "--verify"], 0),
    (["partition:3,5"], 2),
    (["rect:2x2", "--size-cap=-1"], 2),
    (["--help"], 0),
    (["partition:3,2,1", "--method", "hyper"], 3),
], ids=["decimal", "factored", "json", "verify", "parse-error", "usage-error", "help", "inapplicable"])
def test_a_fresh_process_writes_what_run_writes(args, status, capsys):
    # the process entry ends at its last write, without the interpreter's
    # exit: every byte of both streams must still reach the reader
    done = _count_in_a_fresh_process(*args)
    assert cli.run(["count", *args]) == status
    captured = capsys.readouterr()
    assert captured.out or captured.err
    assert done.returncode == status
    assert _masked(done.stdout) == _masked(captured.out)
    assert done.stderr == captured.err
    if "--verify" in args:
        assert done.stderr == "verified: general == dp\n"


def test_a_count_longer_than_a_pipe_buffer_reaches_the_reader_whole():
    # 76,648 digits and a newline: the child's write blocks until the reader
    # drains the pipe, and the process must not end before the last byte
    done = _count_in_a_fresh_process("rect:200x200", timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout) == 76_649
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "417b29d49070c3fa90f8edd7515d319ccdd874cca1dc8e3129d5386fd96855a8"
    )


def test_both_launchers_enter_through_console():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'battery-syt = "battery_syt.cli:console"' in pyproject.splitlines()
    assert Path(cli.__file__).read_text().endswith('\nif __name__ == "__main__":\n    console()\n')


def test_a_truncated_shape_of_10_to_the_20_cells_exits_3_within_5_s():
    done = _count_in_a_fresh_process("truncated:99999999999999999999\\1")
    assert done.returncode == 3
    assert done.stderr.startswith("error: method 'dp' not applicable")


@pytest.mark.parametrize("args, route", [
    (["partition:99999999999999999999"], "hlf"),
    (["battery:rect:99999999999999999999x2,a=1,k=2", "--method", "hyper"], "hyper"),
], ids=["hlf", "hyper"])
def test_a_straight_shape_past_machine_size_exits_3_within_5_s(args, route):
    # the hook length formula takes n! before it builds the hooks, so
    # math.factorial refuses n past sys.maxsize before any cell is walked
    done = _count_in_a_fresh_process(*args)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: method {route!r} cannot count a shape this large: ")


def test_a_nest_too_deep_for_the_recursion_limit_exits_3_within_5_s():
    # the series walk takes a frame per level; the nest is refused before its
    # O(k^3) coefficients are built
    done = _count_in_a_fresh_process("battery:rect:1000x1,a=1,k=1000", "--method", "hyper")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: method 'hyper' cannot count a shape this large: "
        "a 999-level nested sum is deeper than the recursion limit allows\n"
    )
    done = _count_in_a_fresh_process("battery:rect:150x1,a=1,k=150", "--method", "hyper")
    assert (done.returncode, done.stdout, done.stderr) == (0, "150\n", "")


@pytest.mark.parametrize("expr, count", [
    ("battery:rect:60x1,a=0,k=60", "1"),
    ("battery:rect:100x1,a=1,k=50", "50"),
    ("battery:rect:40x2,a=1,k=40", "202278371832757962680400"),
], ids=["60x1", "100x1", "40x2"])
def test_auto_counts_a_battery_far_right_of_a_short_rectangle_within_5_s(expr, count):
    # general takes determinants of the profile box's shorter side, n here;
    # each count is the DP's
    done = _count_in_a_fresh_process(expr)
    assert (done.returncode, done.stdout, done.stderr) == (0, count + "\n", "")


# Counts whose factoring runs out of its work budget, each with the digits of
# the composite cofactor it leaves
OVER_BUDGET = {
    "battery:rect:20x20,a=5,k=6": 50,
    "battery:rect:10x10,a=99999,k=5": 80,
    "battery:rect:24x24,a=2,k=4": 73,
    "battery:rect:30x30,a=3,k=3": 61,
    "battery:rect:40x40,a=10,k=6": 238,
}


@pytest.mark.parametrize("output", ["factored", "json"])
@pytest.mark.parametrize("expr", OVER_BUDGET)
def test_factoring_over_budget_exits_3_within_10_s(expr, output):
    done = _count_in_a_fresh_process(expr, "--output", output, timeout=10)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: factorization over budget: 2^")
    assert done.stderr.endswith(f" times a composite of {OVER_BUDGET[expr]} digits\n")
    assert done.stderr.count("\n") == 1


def test_factoring_over_budget_names_the_primes_it_proved(capsys):
    # trial division, then rho (121181, 58914169) and p-1 (108635493437930911)
    assert cli.run(["count", "battery:rect:20x20,a=5,k=6", "--output", "factored"]) == 3
    assert capsys.readouterr() == ("", (
        "error: factorization over budget: 2^17*3^9*5^4*7^7*11^2*13^3*17*19*29*31^3*37^7*41^8"
        "*43^8*47^7*53^6*59^5*61^5*67^5*71^4*73^4*79^4*83^3*89^3*97^4*101^3*103^2*107^2*109^2"
        "*113^2*127^3*131^3*137^2*139^2*149^3*151*157*163*167*173*179*181*191^2*193^2*197^2"
        "*199^2*211*223*227*229*233*239*241*251*257*263*269*271*277*281*283*293*383*389*397*401"
        "*121181*58914169*108635493437930911 times a composite of 50 digits\n"
    ))


@pytest.mark.parametrize("output", ["decimal", "factored", "json"])
def test_a_closed_stdout_exits_1_without_a_traceback(output):
    argv = [sys.executable, "-m", "battery_syt.cli", "count", "battery:rect:11x7,a=1,k=6", "--output", output]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(argv, env=env, capture_output=True, timeout=30)
    assert done.returncode == 0
    assert done.stdout.strip() and done.stderr == b""
    # the read end is closed before the child writes its first byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=30)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""  # no traceback


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "PYTHONUNBUFFERED"])
def test_a_closed_stderr_loses_only_the_diagnostics(unbuffered):
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the child writes its first byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        parse_error, verified = [
            subprocess.run([sys.executable, "-m", "battery_syt.cli", "count", *args], env=env,
                           stdout=subprocess.PIPE, stderr=write_end, timeout=30)
            for args in (["partition:3,5"], ["battery:rect:3x2,a=1,k=2", "--verify"])
        ]
    finally:
        os.close(write_end)
    # each ends as it does with stderr open: the parse error's status, and the
    # count after its lost "verified:" line
    assert (parse_error.returncode, parse_error.stdout) == (2, b"")
    assert (verified.returncode, verified.stdout) == (0, b"12\n")


def test_verify_unavailable_exits_3(capsys, monkeypatch):
    # a partition above the dp size cap has no second method; refused before
    # the primary hlf count runs
    hlf_calls = []
    monkeypatch.setitem(cli.METHODS, "hlf", lambda shape, size_cap: hlf_calls.append(shape))
    assert cli.run(["count", "partition:130", "--verify"]) == 3
    assert "no second method" in capsys.readouterr().err
    assert hlf_calls == []


@pytest.mark.parametrize("expr, count", [
    ("skew:12,12,11,10/1", "144882236918722960800"),
    ("truncated:5,5,2,1\\2", "530"),
    ("battery:part:5,4,3,a=2,k=2", "9744"),
])
def test_a_shape_only_the_dp_counts_is_verified_on_its_conjugate_layout(expr, count, capsys):
    assert cli.run(["count", expr, "--verify"]) == 0
    assert capsys.readouterr() == (f"{count}\n", "verified: dp == conjugate\n")


def test_general_verified_by_hyper_above_the_dp_cap(capsys):
    # 121 cells: over the dp size cap, so hyper is the partner at column 7
    assert cli.run(["count", "battery:rect:20x6,a=1,k=7", "--verify"]) == 0
    captured = capsys.readouterr()
    assert "verified: general == hyper" in captured.err
    assert captured.out.strip() == (
        "106084817684399890735406624326724286026347717660455570184145434852773744000"
    )


def test_auto_method_selection():
    cases = {
        "battery:rect:3x2,a=1,k=2": "closed",
        "battery:rect:5x4,a=4,k=4": "general",
        "battery:rect:2x2,a=0,k=1": "general",
        "battery:rect:11x11,a=1,k=7": "general",
        "battery:part:3,1,a=1,k=3": "dp",
        "partition:3,2,1": "hlf",
        "skew:3,2/1": "dp",
    }
    for expr, method in cases.items():
        shape = cli.parse_shape_expr(expr)
        assert cli._first_applicable(shape, cli.AUTO_ORDER, cli.DEFAULT_SIZE_CAP) == method


def test_every_auto_and_partner_entry_is_chosen_by_some_call(capsys, monkeypatch):
    # each method stands in by one that records its name and counts 1, so run()
    # picks the primary and the partner exactly as it would for a real count
    calls = []
    for name in cli.METHODS:
        monkeypatch.setitem(cli.METHODS, name, lambda shape, size_cap, name=name: calls.append(name) or 1)
    chosen = {"auto": set(), "partner": set()}
    shapes = [
        "battery:rect:3x2,a=1,k=2", "battery:rect:6x5,a=4,k=4", "battery:rect:20x7,a=1,k=7",
        "partition:3,2,1", "battery:part:3,2,1,a=2,k=2", "skew:4,3/1",
    ]
    for expr in shapes:
        for method in ("auto", "hyper", "general", "closed", "dp"):
            for size_cap in ("0", "12", "120"):
                for verify in ([], ["--verify"]):
                    calls.clear()
                    argv = ["count", expr, "--method", method, "--size-cap", size_cap, *verify]
                    if cli.run(argv) == 0:
                        if method == "auto":
                            chosen["auto"].add(calls[0])
                        if verify:
                            chosen["partner"].add(calls[1])
    capsys.readouterr()
    assert chosen["auto"] == set(cli.AUTO_ORDER)
    assert chosen["partner"] == set(cli.PARTNER_ORDER)


def test_skew_and_truncated_counts(capsys):
    assert cli.run(["count", "skew:4,3,2/2,1"]) == 0
    assert capsys.readouterr().out.strip() == "61"
    assert cli.run(["count", "truncated:5,5,2,1\\2"]) == 0
    assert capsys.readouterr().out.strip() == "530"


@pytest.fixture
def default_int_str_limit():
    """Run with CPython's default int/str digit limit, where this Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_run_restores_the_int_str_digit_limit(capsys, default_int_str_limit):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    for argv in (["count", "partition:2,1"], ["count", "partition:3,5"], ["count", "--bogus"]):
        cli.run(argv)
        assert limit() == before, argv


def test_counts_past_the_int_str_digit_limit(capsys, default_int_str_limit):
    expr = "partition:" + ",".join(["56"] * 56 + ["9"])  # 4301 digits, one past the limit
    assert cli.run(["count", expr]) == 0
    decimal = capsys.readouterr().out.strip()
    assert len(decimal) == 4301
    assert cli.run(["count", expr, "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == decimal


@st.composite
def small_batteries(draw):
    """Batteries of at most 24 cells over rectangles and other partitions."""
    width = draw(st.integers(1, 5))
    if draw(st.booleans()):
        lam = (width,) * draw(st.integers(1, 4))
    else:
        rows = draw(st.lists(st.integers(1, width), min_size=1, max_size=4))
        lam = tuple(sorted(rows, reverse=True))
    return BatteryShape(lam, draw(st.integers(0, 4)), draw(st.integers(1, lam[0])))


@settings(max_examples=100, deadline=None)
@given(small_batteries())
def test_applicable_methods_agree(shape):
    counts = {
        name: cli.METHODS[name](shape, cli.DEFAULT_SIZE_CAP)
        for name, (needs, applies) in cli.REGISTRY.items()
        if applies(shape, cli.DEFAULT_SIZE_CAP)
    }
    assert "dp" in counts
    assert len(set(counts.values())) == 1, (shape, counts)


@settings(max_examples=100, deadline=None)
@given(small_batteries(), st.sampled_from(["hyper", "general", "closed", "dp"]), st.integers(0, 30))
def test_method_exits_3_exactly_when_inapplicable(shape, method, size_cap):
    base = ",".join(map(str, shape.lam))
    expr = f"battery:part:{base},a={shape.a},k={shape.k}"
    status = cli.run(["count", expr, "--method", method, "--size-cap", str(size_cap)])
    needs, applies = cli.REGISTRY[method]
    assert status == (0 if applies(shape, size_cap) else 3)


def test_every_method_has_one_count_and_one_rule():
    assert cli.METHODS.keys() == cli.REGISTRY.keys()
    named = set(cli.AUTO_ORDER) | set(cli.PARTNER_ORDER) | set(cli._OPTIONS["--method"]) - {"auto"}
    assert named <= cli.METHODS.keys()
    for needs, applies in cli.REGISTRY.values():
        assert isinstance(needs, str) and callable(applies)


def _joined(values):
    return ",".join(map(str, values))


@st.composite
def shape_exprs(draw):
    """Expressions of every kind in the grammar, with sides and parts bounded so
    that every parseable one has at most 30 cells, or junk text."""
    def spoil(good, *bad):
        # mostly well formed, sometimes malformed or out of range
        return draw(st.sampled_from([good] * 4 + list(bad)))

    def rows(within=None):
        if within is None:
            values = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        else:
            # often inside the outer shape, sometimes a cell or a row past it
            bounds = within + [0]
            values = [draw(st.integers(1, v + 1)) for v in bounds[:draw(st.integers(1, len(bounds)))]]
        values.sort(reverse=True)
        return values, spoil(_joined(values), _joined(values[::-1]), _joined(values + [-1]), "")

    def rect():
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        return spoil(f"{m}x{n}", f"0x{n}", f"{m}x-1", f"{m}")

    kind = draw(st.sampled_from(
        ["partition", "rect", "battery:rect", "battery:part", "skew", "truncated", "junk"]
    ))
    if kind == "partition":
        return f"partition:{rows()[1]}"
    if kind == "rect":
        return f"rect:{rect()}"
    if kind.startswith("battery"):
        base = rect() if kind == "battery:rect" else rows()[1]
        a = spoil(draw(st.integers(0, 5)), -1)
        k = spoil(draw(st.integers(1, 5)), 0, -1, 9)
        return f"{kind}:{base},a={a},k={k}"
    if kind in ("skew", "truncated"):
        outer, outer_text = rows()
        inner_text = rows(within=outer)[1]
        return f"skew:{outer_text}/{inner_text}" if kind == "skew" else f"truncated:{outer_text}\\{inner_text}"
    return draw(st.text(max_size=20))


@st.composite
def count_flags(draw):
    """Random --method ("conjugate" is a registry name the CLI refuses), --output, --verify and --size-cap."""
    flags = []
    if draw(st.booleans()):
        flags += ["--method", draw(st.sampled_from(["auto", "hyper", "general", "closed", "dp", "conjugate"]))]
    if draw(st.booleans()):
        flags += ["--output", draw(st.sampled_from(["decimal", "factored", "json"]))]
    if draw(st.booleans()):
        flags.append("--verify")
    if draw(st.booleans()):
        flags += ["--size-cap", draw(st.sampled_from(["0", "12", "30", "120", "-1", "x"]))]
    return flags


@settings(max_examples=150, deadline=None)
@given(shape_exprs(), count_flags())
@example("battery:rect:20x20,a=5,k=6", ["--output", "factored"])
@example("battery:rect:10x10,a=99999,k=5", ["--output", "json"])
@example("battery:rect:24x24,a=2,k=4", ["--output", "factored"])
@example("battery:rect:30x30,a=3,k=3", ["--output", "json"])
@example("battery:rect:40x40,a=10,k=6", ["--output", "factored"])
def test_cli_exits_only_0_2_3_or_4(expr, flags):
    # an exception escaping run() fails the test as well
    assert cli.run(["count", expr, *flags]) in (0, 2, 3, 4)
