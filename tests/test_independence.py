"""The independence rule, traced: a ``--verify`` partner shares with its primary
only the functions its pair's allowance names.

For one shape of each class, the pair ``cli.run`` would pick (``auto``'s
primary and the first applicable partner) counts the shape through
``cli.METHODS``, and ``sys.setprofile`` records each function of the package
that the count calls, as its module and ``co_name``. A function both counts
call lies in both routes, so a fault in it could make them agree on a wrong
count. Anonymous code (a ``METHODS`` lambda, a generator expression) is left
out: it runs inside the named function that defines it, which is recorded.
"""

import sys
from functools import cache

import pytest

from battery_syt import arith, cli, counting, frobenius, hypergeom, oracle  # noqa: F401  (imported untraced)

# one shape of each class the CLI counts, with the pair that verifies it
SHAPES = {
    "straight": "partition:5,3,1",  # hlf / frobenius
    "rectangle battery under the cap": "battery:rect:6x5,a=2,k=3",  # general / dp
    "rectangle battery above the cap": "battery:rect:11x11,a=1,k=7",  # general / hyper
    "closed-form case": "battery:rect:6x5,a=1,k=2",  # closed / dp
    "partition battery": "battery:part:4,3,1,a=2,k=2",  # dp / conjugate
    "skew": "skew:4,3,2/2,1",  # dp / conjugate
    "truncated": "truncated:5,5,2,1\\2",  # dp / conjugate
}

# (primary, partner) -> the functions both may call, as module.co_name with the
# package's own module named battery_syt. ``call`` is ``_lazy``'s wrapper.
ALLOWED = {
    ("hlf", "frobenius"): set(),
    ("general", "dp"): {"battery_syt.call"},
    # both read (m, n, a, k) by one rectangle rule, which builds a one-row
    # battery, and both divide by counting's exact division
    ("general", "hyper"): {
        "battery_syt.call", "battery_syt._integral", "battery_syt._set", "cli._rect", "counting._exact",
        "shapes.__init__", "shapes._rect_battery", "shapes.as_partition", "shapes.is_rectangle",
    },
    # the DP checks its middle cut against the rectangle's hook length count,
    # which the catalog evaluates too; a wrong hook count makes the DP raise
    ("closed", "dp"): {"battery_syt.call", "shapes._columns", "shapes._hooks", "shapes._hlf"},
    # the known debt (ROADMAP item 17): the same walk and cap on the conjugate
    # layout, and a skew or truncated shape's own row spans
    ("dp", "conjugate"): {
        "battery_syt.call", "cli._with_spans", "oracle._gate_table", "oracle._levels",
        "oracle._open_bit_table", "oracle._profile", "shapes.dp_refusal", "shapes.row_spans",
    },
}


def _called(method: str, shape) -> set[str]:
    """Each named function of the package that ``METHODS[method]`` calls on ``shape``."""
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
    return called


@cache
def _traced(expr: str) -> tuple[tuple[str, str], frozenset[str]]:
    """The pair that verifies ``expr`` and the functions both its counts call."""
    shape = cli.parse_shape_expr(expr)
    primary = cli._first_applicable(shape, cli.AUTO_ORDER, cli.DEFAULT_SIZE_CAP) or "dp"
    partner = cli._first_applicable(shape, cli.PARTNER_ORDER, cli.DEFAULT_SIZE_CAP, skip=primary)
    return (primary, partner), frozenset(_called(primary, shape) & _called(partner, shape))


@pytest.mark.parametrize("expr", SHAPES.values(), ids=list(SHAPES))
def test_a_verify_pair_shares_only_its_allowance(expr):
    pair, shared = _traced(expr)
    assert pair in ALLOWED
    assert shared <= ALLOWED[pair], sorted(shared - ALLOWED[pair])


def test_every_allowance_is_shared_by_some_shape():
    # an allowance wider than what the pair shares hides the next shared function
    seen = {pair: set() for pair in ALLOWED}
    for expr in SHAPES.values():
        pair, shared = _traced(expr)
        seen[pair] |= shared
    assert seen == ALLOWED
