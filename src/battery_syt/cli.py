"""Command-line front end: parse a shape expression, count its tableaux by the
requested method, optionally cross-verify with an independent method, and print
the result as a decimal, a prime factorization, or JSON.

Exit codes: 0 success, 1 stdout closed by its reader, 2 parse error, 3 method
inapplicable (also a shape too large for a route's integer primitives), 4
verification mismatch or an inconsistent count (an arithmetic fault inside a
counting route). A closed stderr loses only the diagnostics: the status and
stdout stay what they would be.

Importing this module loads only the shape types; each counting route, and
factorization, is imported the first time a call needs it. The one command's
options are read from a table rather than by argparse, which with gettext and
locale would cost every call about 3 ms of import and parser set-up.

``main(argv)`` is the in-process API: it returns the exit status and leaves
the interpreter running. ``console()`` is the process entry of both
launchers, ``python -m battery_syt.cli`` and the ``battery-syt`` script: it
ends the process at its last write, without the interpreter's teardown.
"""

import os
import sys
import time

from . import Record, _lazy
from .shapes import (
    DEFAULT_SIZE_CAP,
    ENUMERATION_CAP,
    BatteryShape,
    Partition,
    SkewShape,
    TruncatedShape,
    as_partition,
    syt_count_straight,
)

# The routes, each imported the first time it runs. They stay module bindings,
# which REGISTRY calls through and span tracing rebinds.
count_hyper = _lazy("counting", "count_hyper")
count_general = _lazy("counting", "count_general")
closed_form = _lazy("counting", "closed_form")
match_closed_form = _lazy("counting", "match_closed_form")
count_linear_extensions = _lazy("oracle", "count_linear_extensions")
count_line_convex = _lazy("oracle", "count_line_convex")  # only span tracing uses it
enumerate_syt = _lazy("oracle", "enumerate_syt")
factorize = _lazy("arith", "factorize")

__all__ = ["ShapeParseError", "parse_shape_expr", "run", "main", "console"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_METHOD = 3
EXIT_MISMATCH = 4

Shape = Partition | SkewShape | TruncatedShape | BatteryShape


class ShapeParseError(ValueError):
    """Malformed shape expression; carries the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def _parse_int_list(text: str, offset: int) -> tuple[int, ...]:
    if not text:
        raise ShapeParseError("expected a comma-separated list of integers", offset)
    values = []
    pos = offset
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ShapeParseError(f"expected an integer, got {token!r}", pos) from None
        pos += len(token) + 1
    return tuple(values)


def _constructed(build: "Callable", offset: int, *fields):
    """Call a shape constructor; its ValueError is a ShapeParseError at ``offset``."""
    try:
        return build(*fields)
    except ValueError as exc:
        raise ShapeParseError(str(exc), offset) from None


def _parse_partition(text: str, offset: int) -> Partition:
    return _constructed(as_partition, offset, _parse_int_list(text, offset))


def _parse_rect(text: str, offset: int) -> Partition:
    width, sep, height = text.partition("x")
    if not sep:
        raise ShapeParseError("expected MxN", offset)
    try:
        m, n = int(width), int(height)
    except ValueError:
        raise ShapeParseError(f"expected MxN with integer sides, got {text!r}", offset) from None
    if m < 1 or n < 1:
        raise ShapeParseError(f"rectangle sides must be positive, got {m}x{n}", offset)
    try:
        return (m,) * n
    except (OverflowError, MemoryError):  # n cannot be a tuple length
        raise ShapeParseError(f"rectangle has too many rows, got {m}x{n}", offset) from None


def _parse_battery(text: str, offset: int) -> BatteryShape:
    fields = text.split(",")
    if len(fields) < 3:
        raise ShapeParseError("expected base, a=A and k=K", offset)
    # the named fields: the last two, and any before them with an = (no base has one)
    start = len(fields) - 2
    while start > 1 and "=" in fields[start - 1]:
        start -= 1
    base_text = ",".join(fields[:start])
    tail_offset = offset + len(base_text) + 1
    named = {}
    repeated = None
    pos = tail_offset
    for token in fields[start:]:
        key, sep, val = token.partition("=")
        if not sep or key not in ("a", "k"):
            raise ShapeParseError(f"expected a=A or k=K, got {token!r}", pos)
        if key in named and repeated is None:
            repeated = ShapeParseError(f"{key}= given twice", pos)
        try:
            named[key] = int(val)
        except ValueError:
            raise ShapeParseError(f"expected an integer for {key}=, got {val!r}", pos) from None
        pos += len(token) + 1
    if set(named) != {"a", "k"}:
        raise ShapeParseError("both a= and k= are required", tail_offset)
    if repeated:
        raise repeated
    if base_text.startswith("rect:"):
        lam = _parse_rect(base_text[5:], offset + 5)
    elif base_text.startswith("part:"):
        lam = _parse_partition(base_text[5:], offset + 5)
    else:
        raise ShapeParseError("battery base must start with rect: or part:", offset)
    return _constructed(BatteryShape, offset, lam, named["a"], named["k"])


# kind -> (separator, name of the second partition, constructor from both partitions)
_OUTER_AND_OTHER = {
    "skew": ("/", "inner", SkewShape),
    "truncated": ("\\", "trunc", lambda outer, cut: TruncatedShape(SkewShape(outer), cut)),
}


def parse_shape_expr(text: str) -> Shape:
    """Parse one of:
    partition:5,3,1 | rect:MxN | battery:rect:MxN,a=A,k=K |
    battery:part:L1,...,a=A,k=K | skew:outer/inner | truncated:outer\\trunc
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ShapeParseError("expected <kind>:<spec>", 0)
    offset = len(kind) + 1
    if kind == "partition":
        return _parse_partition(rest, offset)
    if kind == "rect":
        return _parse_rect(rest, offset)
    if kind == "battery":
        return _parse_battery(rest, offset)
    if kind in _OUTER_AND_OTHER:
        separator, other_name, build = _OUTER_AND_OTHER[kind]
        outer_text, found, other_text = rest.partition(separator)
        if not found:
            raise ShapeParseError(f"expected outer{separator}{other_name}", offset)
        outer = _parse_partition(outer_text, offset)
        other = _parse_partition(other_text, offset + len(outer_text) + 1)
        return _constructed(build, offset, outer, other)
    raise ShapeParseError(f"unknown shape kind {kind!r}", 0)


def _rect(shape: Shape) -> tuple[int, int, int, int] | None:
    """(m, n, a, k) of a battery over an m-by-n rectangle; None for any other shape."""
    if isinstance(shape, BatteryShape) and shape.is_rectangle():
        return shape.lam[0], len(shape.lam), shape.a, shape.k
    return None


def _shape_size(shape: Shape) -> int:
    return sum(shape) if isinstance(shape, tuple) else shape.size


def _with_spans(shape: Shape) -> SkewShape | TruncatedShape | BatteryShape:
    """A straight partition as the battery with no extra cells, which the DP and
    the enumerator take; other shapes unchanged."""
    return BatteryShape(shape, 0, 1) if isinstance(shape, tuple) else shape


class Method(Record):
    """A counting method: what shapes it needs, a cheap static test for that, and the count.

    ``needs`` is formatted with size_cap and the shape's size for the
    not-applicable message. ``applies`` never evaluates a count, so auto and
    --verify can pick methods without running them.
    """

    __slots__ = ("needs", "applies", "count")

    def __init__(
        self,
        needs: str,
        applies: "Callable[[Shape, int], bool]",
        count: "Callable[[Shape, int], int]",
    ) -> None:
        self._set(needs, applies, count)


REGISTRY = {
    "hyper": Method(
        "a battery over a rectangle",
        lambda shape, size_cap: _rect(shape) is not None,
        lambda shape, size_cap: count_hyper(*_rect(shape)),
    ),
    "general": Method(
        "a battery over a rectangle",
        lambda shape, size_cap: _rect(shape) is not None,
        lambda shape, size_cap: count_general(*_rect(shape)),
    ),
    "closed": Method(
        "a battery over a rectangle covered by a closed-form case",
        lambda shape, size_cap: _rect(shape) is not None and match_closed_form(*_rect(shape)) is not None,
        lambda shape, size_cap: (lambda case_id, params: closed_form(case_id, **params))(
            *match_closed_form(*_rect(shape))
        ),
    ),
    "dp": Method(
        "at most {size_cap} cells (--size-cap), the shape has {size}",
        lambda shape, size_cap: _shape_size(shape) <= size_cap,
        lambda shape, size_cap: count_linear_extensions(_with_spans(shape), size_cap),
    ),
    "hlf": Method(
        "a straight partition",
        lambda shape, size_cap: isinstance(shape, tuple),
        lambda shape, size_cap: syt_count_straight(shape),
    ),
    "enum": Method(
        f"a battery or partition of at most {ENUMERATION_CAP} cells",
        lambda shape, size_cap: isinstance(shape, (tuple, BatteryShape))
        and _shape_size(shape) <= ENUMERATION_CAP,
        lambda shape, size_cap: len(enumerate_syt(_with_spans(shape))),
    ),
}

# monkeypatch point for fault-injection tests; run() counts only through it
METHODS = {name: method.count for name, method in REGISTRY.items()}

# auto runs the first applicable method, falling back to dp for its size-cap
# refusal; --verify checks against the first applicable other method, so a
# rectangle battery counted by general is checked by dp up to the size cap and
# by hyper above it; closed is never a partner, as hyper and general apply
# wherever it does
AUTO_ORDER = ("closed", "general", "hlf", "dp")
PARTNER_ORDER = ("dp", "hyper", "general", "hlf", "enum")


def _note(line: str) -> None:
    """Print one diagnostic line on stderr; a closed stderr loses only the line."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        pass


def _run_method(name: str, shape: Shape, size_cap: int) -> tuple[int | None, int]:
    """Count through METHODS: (count, EXIT_OK), or (None, status) after a report on stderr.

    An OverflowError, an argument past a machine-size primitive such as
    ``math.comb``, makes the method inapplicable (exit 3). Any other arithmetic
    fault, a non-integer value or a vanished denominator factor, means the route's
    parameters disagree with the shape, the same fault a verify mismatch shows.
    """
    try:
        return METHODS[name](shape, size_cap), EXIT_OK
    except OverflowError as exc:
        _note(f"error: method {name!r} cannot count a shape this large: {exc}")
        return None, EXIT_METHOD
    except ArithmeticError as exc:
        _note(f"error: inconsistent count from {name}: {exc}")
        return None, EXIT_MISMATCH


def _first_applicable(shape: Shape, order, size_cap: int, skip: str | None = None) -> str | None:
    return next(
        (name for name in order if name != skip and REGISTRY[name].applies(shape, size_cap)),
        None,
    )


# option -> its choices, int for a non-negative integer, or None for a flag
_OPTIONS = {
    "--method": ("auto", "hyper", "general", "closed", "dp"),
    "--output": ("decimal", "factored", "json"),
    "--verify": None,
    "--size-cap": int,
}

USAGE = (
    "usage: battery-syt count SHAPE [--method {auto,hyper,general,closed,dp}]\n"
    "                               [--output {decimal,factored,json}] [--verify] [--size-cap N]"
)

HELP = f"""{USAGE}

Count standard Young tableaux of battery, straight, skew, and truncated shapes.

SHAPE is one of partition:5,3,1 | rect:MxN | battery:rect:MxN,a=A,k=K |
battery:part:L1,...,a=A,k=K | skew:OUTER/INNER | truncated:OUTER\\TRUNC

options (each as --option VALUE or --option=VALUE, before or after SHAPE):
  -h, --help      show this help message and exit
  --method M      auto (the default), hyper, general, closed or dp
  --output F      decimal (the default), factored or json
  --verify        compute by a second independent method and compare
  --size-cap N    cell limit for the dynamic-programming counter (default {DEFAULT_SIZE_CAP})
"""


class _UsageError(Exception):
    """A command line the count command does not take; the message says why."""


def _option_value(name: str, text: str):
    """The value of option ``name`` given as ``text``, checked against _OPTIONS."""
    kind = _OPTIONS[name]
    if kind is int:
        try:
            value = int(text)
        except ValueError:
            raise _UsageError(f"argument {name}: expected an integer, got {text!r}") from None
        if value < 0:
            raise _UsageError(f"argument {name}: must be non-negative, got {value}")
        return value
    if text not in kind:
        raise _UsageError(f"argument {name}: invalid choice {text!r} (choose from {', '.join(kind)})")
    return text


def _parse_args(argv) -> dict | None:
    """The shape and options of a ``count`` command line, keyed ``shape``,
    ``method``, ``output``, ``verify`` and ``size_cap``; None when it asks for
    help. Raises _UsageError for any other command line."""
    argv = list(argv)
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] != "count":
        got = f"got {argv[0]!r}" if argv else "none given"
        raise _UsageError(f"the command must be count, {got}")
    args = {"method": "auto", "output": "decimal", "verify": False, "size_cap": DEFAULT_SIZE_CAP}
    shapes = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            shapes.append(token)
            continue
        name, inline, value = token.partition("=")
        if name not in _OPTIONS:
            raise _UsageError(f"unrecognized option {name!r}")
        key = name[2:].replace("-", "_")
        if _OPTIONS[name] is None:
            if inline:
                raise _UsageError(f"argument {name}: takes no value, got {value!r}")
            args[key] = True
            continue
        if not inline:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"argument {name}: expected a value")
        args[key] = _option_value(name, value)
    if len(shapes) != 1:
        raise _UsageError("expected one SHAPE, got " + (", ".join(map(repr, shapes)) or "none"))
    args["shape"] = shapes[0]
    return args


def run(argv) -> int:
    """Execute the CLI for the given argument list and return the exit status."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    # exact counts may run past CPython's default 4300-digit limit on int/str
    # conversion; lift it for this run only, since callers share the process
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        _note(f"{USAGE}\nbattery-syt: error: {exc}")
        return EXIT_PARSE
    if args is None:
        print(HELP, end="")
        return EXIT_OK

    expr, size_cap = args["shape"], args["size_cap"]
    try:
        shape = parse_shape_expr(expr)
    except ShapeParseError as exc:
        _note(f"error: cannot parse {expr!r}: {exc}")
        return EXIT_PARSE

    method = args["method"]
    if method == "auto":
        method = _first_applicable(shape, AUTO_ORDER, size_cap) or "dp"
    if not REGISTRY[method].applies(shape, size_cap):
        needs = REGISTRY[method].needs.format(size_cap=size_cap, size=_shape_size(shape))
        _note(f"error: method {method!r} not applicable: it needs {needs}")
        return EXIT_METHOD
    partner = None
    if args["verify"]:
        # refuse before counting, so a shape with no partner costs no primary count
        partner = _first_applicable(shape, PARTNER_ORDER, size_cap, skip=method)
        if partner is None:
            _note(f"error: no second method available to verify {expr!r}")
            return EXIT_METHOD
    started = time.perf_counter()
    count, status = _run_method(method, shape, size_cap)
    if status:
        return status

    if partner is not None:
        check, status = _run_method(partner, shape, size_cap)
        if status:
            return status
        if check != count:
            _note(f"error: verification mismatch: {method} gives {count}, {partner} gives {check}")
            return EXIT_MISMATCH
        _note(f"verified: {method} == {partner}")

    if args["output"] == "decimal":
        print(count)
        return EXIT_OK
    factorization = factorize(count) if count >= 1 else None
    if args["output"] == "factored":
        print(factorization)
        return EXIT_OK
    report = {
        "shape": expr,
        "method": method,
        "count": str(count),
        "factorization": None if factorization is None else [[p, e] for p, e in factorization.factors],
        "verified_methods": [] if partner is None else [method, partner],
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
    }
    # only --output json serializes, so the other outputs never import json
    import json

    print(json.dumps(report))
    return EXIT_OK


def main(argv=None) -> int:
    """Run the command line ``argv`` (by default the process's) and return its
    exit status; the interpreter stays up. A closed stdout is status 1; a
    closed stderr loses only the diagnostics."""
    try:
        status = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the interpreter's
        # own flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def console() -> None:
    """Run ``main``, flush both streams and end the process with its status.

    After the last write the interpreter's exit would only tear down the
    modules loaded since start-up, ``site``'s included, which can cost more
    than the count. The package registers no ``atexit`` hook and leaves no
    file open, so ``os._exit`` loses nothing. An exception that escapes
    ``main`` or a flush ends the process the normal way, with its traceback.
    """
    status = main()
    sys.stdout.flush()
    try:
        sys.stderr.flush()
    except BrokenPipeError:  # a closed stderr loses only the diagnostics
        pass
    os._exit(status)


if __name__ == "__main__":
    console()
