"""The independence rule, traced: a ``--verify`` partner shares with its primary
only the functions its pair's allowance names.

For one shape of each class, every pair ``cli.run`` can form under
``--verify`` (``auto``'s primary, or any ``--method`` choice the shape admits,
with the first applicable partner) counts the shape through ``cli.METHODS``,
and ``sys.setprofile`` records each function of the package that the count
calls, as its module and ``co_name``. A function both counts call lies in both
routes, so a fault in it could make them agree on a wrong count. Anonymous
code (a ``METHODS`` lambda, a generator expression) is left out: it runs
inside the named function that defines it, which is recorded.
"""

import sys
from functools import cache

import pytest

from battery_syt import arith, cli, counting, frobenius, hypergeom, oracle  # noqa: F401  (imported untraced)

# one shape of each class the CLI counts, with the pairs that verify it
SHAPES = {
    "straight": "partition:5,3,1",  # hlf / frobenius, dp / frobenius
    # general, hyper or dp / dp or general
    "rectangle battery under the cap": "battery:rect:6x5,a=2,k=3",
    "rectangle battery above the cap": "battery:rect:11x11,a=1,k=7",  # general / hyper, hyper / general
    # closed, general or hyper / dp; dp / general
    "closed-form case under the cap": "battery:rect:6x5,a=1,k=2",
    # closed or hyper / general, general / hyper
    "closed-form case above the cap": "battery:rect:15x9,a=3,k=2",
    "partition battery": "battery:part:4,3,1,a=2,k=2",  # dp / conjugate
    "skew": "skew:4,3,2/2,1",  # dp / conjugate
    "truncated": "truncated:5,5,2,1\\2",  # dp / conjugate
}

# the routes that count by a formula, which must share no rectangle count or
# hook-length body with each other, as a wrong one would pass both
FORMULAS = {"closed", "general", "hyper", "hlf", "frobenius"}
HOOK_BODIES = {
    "counting.rect_syt_count", "shapes.syt_count_straight", "shapes.hook_lengths",
    "shapes._hlf", "shapes._hooks", "shapes._columns",
}

# both read (m, n, a, k) by one rectangle rule, which checks the battery's
# column against the width, and both divide by counting's exact division
RECTANGLE_RULE = {
    "battery_syt.call", "battery_syt._integral", "cli._rect", "counting._exact",
    "shapes._battery_column", "shapes._rect_battery", "shapes.is_rectangle",
}
# the DP checks its middle cut against the rectangle's hook length count,
# which the catalog and the series multiply by too; a wrong hook count makes
# the DP raise
CUT_CHECK = {"battery_syt.call", "shapes._columns", "shapes._hooks", "shapes._hlf"}

# {primary, partner} -> the functions both may call, as module.co_name with
# the package's own module named battery_syt. ``call`` is ``_lazy``'s wrapper.
# A pair shares the same functions in either order
ALLOWED = {frozenset(pair): shared for pair, shared in {
    ("hlf", "frobenius"): set(),
    ("general", "dp"): {"battery_syt.call"},
    ("dp", "frobenius"): {"battery_syt.call"},
    ("general", "hyper"): RECTANGLE_RULE,
    ("closed", "general"): RECTANGLE_RULE,
    ("closed", "dp"): CUT_CHECK,
    ("hyper", "dp"): CUT_CHECK,
    # the known debt (ROADMAP item 17): the same walk and cap on the conjugate
    # layout, and a skew or truncated shape's own row spans
    ("dp", "conjugate"): {
        "battery_syt.call", "cli._with_spans", "oracle._gate_table", "oracle._levels",
        "oracle._open_bit_table", "oracle._profile", "shapes.dp_refusal", "shapes.row_spans",
    },
}.items()}


def _pairs(shape) -> set[tuple[str, str]]:
    """Each (primary, partner) that ``--verify`` forms on ``shape``, for ``auto``
    and for every ``--method`` choice, as ``cli.run`` picks them."""
    size_cap = cli.DEFAULT_SIZE_CAP
    choices = {cli._first_applicable(shape, cli.AUTO_ORDER, size_cap)[0] or "dp"}
    choices |= set(cli._OPTIONS["--method"]) - {"auto"}
    pairs = set()
    for primary in choices:
        partner, _ = cli._first_applicable(shape, cli.PARTNER_ORDER, size_cap, skip=primary)
        if cli.REGISTRY[primary](shape, size_cap) is None and partner is not None:
            pairs.add((primary, partner))
    return pairs


@cache
def _called(method: str, expr: str) -> frozenset[str]:
    """Each named function of the package that ``METHODS[method]`` calls on ``expr``."""
    shape = cli.parse_shape_expr(expr)
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if event == "call" and module.split(".")[0] == "battery_syt" and not name.startswith("<"):
            called.add(f"{module.removeprefix('battery_syt.')}.{name}")

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        cli.METHODS[method](shape, cli.DEFAULT_SIZE_CAP)
    finally:
        sys.setprofile(before)
    return frozenset(called)


def _shared(expr: str) -> dict[tuple[str, str], frozenset[str]]:
    """Each pair that verifies ``expr`` -> the functions both its counts call."""
    pairs = _pairs(cli.parse_shape_expr(expr))
    return {pair: _called(pair[0], expr) & _called(pair[1], expr) for pair in sorted(pairs)}


@pytest.mark.parametrize("expr", SHAPES.values(), ids=list(SHAPES))
def test_a_verify_pair_shares_only_its_allowance(expr):
    shared_by = _shared(expr)
    assert shared_by
    for pair, shared in shared_by.items():
        assert frozenset(pair) in ALLOWED, pair
        assert shared <= ALLOWED[frozenset(pair)], (pair, sorted(shared - ALLOWED[frozenset(pair)]))


def test_every_allowance_is_shared_by_some_shape():
    # an allowance wider than what the pair shares hides the next shared function
    seen = {pair: set() for pair in ALLOWED}
    for expr in SHAPES.values():
        for pair, shared in _shared(expr).items():
            seen[frozenset(pair)] |= shared
    assert seen == ALLOWED


def test_no_two_formulas_share_a_rectangle_count_or_a_hook_body():
    for pair, shared in ALLOWED.items():
        if pair <= FORMULAS:
            assert not shared & HOOK_BODIES, (sorted(pair), sorted(shared & HOOK_BODIES))
    # closed and hyper both multiply counting.rect_syt_count, so neither may
    # verify the other
    expr = "battery:rect:6x5,a=1,k=2"
    assert {"counting.rect_syt_count", "shapes._hlf"} <= _called("closed", expr) & _called("hyper", expr)
    assert frozenset({"closed", "hyper"}) not in ALLOWED
