"""The package's library surface: every exported name resolves on first access
to the object its submodule defines, and importing the package loads none of
its modules."""

import ast
import importlib
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import battery_syt
from conftest import run_fresh

# submodule -> the names the package exports from it
EXPORTS = {
    "arith": ("Factorization", "FactorizationBudgetError", "factorize", "is_prime"),
    "counting": (
        "CLOSED_FORM_CASES", "COUNT_BY_COLUMN", "NonIntegerCountError", "closed_form",
        "count_general", "count_hyper", "match_closed_form", "rect_syt_count",
    ),
    "frobenius": ("syt_count_frobenius",),
    "hypergeom": (
        "NonTerminatingSeriesError", "ZeroDenominatorFactorError", "eval_multi_pfq", "eval_pfq",
        "termination_index",
    ),
    "oracle": (
        "conjugate_spans", "count_line_convex", "count_linear_extensions", "linear_extension_profile",
    ),
    "shapes": (
        "BatteryShape", "Partition", "SkewShape", "TruncatedShape", "as_partition",
        "conjugate", "hook_lengths", "rotated_complement", "syt_count_straight",
    ),
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_every_export_once():
    assert sorted(battery_syt.__all__) == sorted(ALL_NAMES)
    assert len(set(ALL_NAMES)) == len(ALL_NAMES)


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_is_its_submodules_object(module):
    source = importlib.import_module(f"battery_syt.{module}")
    assert getattr(battery_syt, module) is source
    for name in EXPORTS[module]:
        assert getattr(battery_syt, name) is getattr(source, name), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from battery_syt import *", namespace)
    for name in ALL_NAMES:
        assert namespace[name] is getattr(battery_syt, name), name
    assert set(ALL_NAMES) | set(EXPORTS) <= set(dir(battery_syt))
    assert battery_syt.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'count_everything'"):
        battery_syt.count_everything
    with pytest.raises(ImportError):
        exec("from battery_syt import count_everything", {})


def test_import_loads_no_submodule_and_a_name_loads_only_its_own():
    out, loaded = run_fresh("import battery_syt")
    assert loaded == {"battery_syt"}
    out, loaded = run_fresh("import battery_syt\nprint(battery_syt.count_hyper(11, 7, 1, 6))")
    assert int(out[0]) == battery_syt.count_hyper(11, 7, 1, 6)
    assert {"battery_syt.counting", "battery_syt.hypergeom"} <= loaded
    assert not {"battery_syt.oracle", "battery_syt.arith", "fractions", "decimal", "numbers"} & loaded
    out, loaded = run_fresh("from battery_syt import BatteryShape")
    assert loaded == {"battery_syt", "battery_syt.shapes"}
    out, loaded = run_fresh("from battery_syt import factorize")
    assert loaded == {"battery_syt", "battery_syt.arith"}


def test_a_full_count_call_loads_no_argparse_gettext_or_locale():
    # the CLI reads its options from a table: a call that verifies, factors
    # and prints JSON loads none of argparse and the modules it brings
    out, loaded = run_fresh(
        "import battery_syt.cli as cli\n"
        "cli.main(['count', 'battery:rect:3x2,a=1,k=2', '--verify', '--output=json', '--size-cap', '20'])\n"
    )
    assert out[0].startswith('{"shape": "battery:rect:3x2,a=1,k=2", "method": "closed", "count": "12"')
    assert {"battery_syt.cli", "battery_syt.oracle", "battery_syt.arith", "json"} <= loaded
    assert not loaded & {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("module", battery_syt._EXPORTS)
def test_each_module_declares_exactly_its_package_row(module):
    source = importlib.import_module(f"battery_syt.{module}")
    assert sorted(source.__all__) == sorted(battery_syt._EXPORTS[module])
    namespace = {}
    exec(f"from battery_syt.{module} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(battery_syt._EXPORTS[module])


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "battery_syt"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(battery_syt.__all__)
    exec(example, {})


@given(st.lists(st.integers(-10**300, 10**300) | st.integers(-3, 3), max_size=40))
@example([])
@example([0])
@example([7, 0, -2])
@example([-1] * 39)
@example([10**300] * 40)
def test_the_balanced_product_is_the_running_product(values):
    # the one product tree of the package: Frobenius's prime powers, the
    # factoring module's, and count_general's column-side denominator
    assert battery_syt._product(list(values)) == math.prod(values)


@given(st.integers(0, 5000))
@example(0)
@example(1)
@example(2)
@example(3)
@example(4)
@example(25)
@example(49)
def test_the_sieve_lists_the_primes_trial_division_finds(limit):
    # the one sieve of the package: Frobenius's primes, p-1's prime powers and
    # the perfect-power search's exponents
    def prime(x):
        return x >= 2 and all(x % d for d in range(2, math.isqrt(x) + 1))

    assert battery_syt._primes(limit) == [x for x in range(limit + 1) if prime(x)]
