"""Command-line front end: parse a shape expression, count its tableaux by the
requested method, optionally cross-verify with an independent method, and print
the result as a decimal, a prime factorization, or JSON.

Exit codes: 0 success, 1 stdout closed by its reader, 2 parse error, 3 method
inapplicable (also a shape too large for a route's integer primitives) or a
factorization over its work budget, 4 verification mismatch or an
inconsistent count (an arithmetic fault inside a counting route). A closed
stderr loses only the diagnostics: the status and stdout stay what they would
be.

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
from math import comb

from . import _lazy
from .shapes import (
    DEFAULT_SIZE_CAP,
    BatteryShape,
    Partition,
    SkewShape,
    TruncatedShape,
    _rect_battery,
    as_partition,
    dp_cells,
    dp_refusal,
    syt_count_straight,
)

# The routes, each imported the first time it runs. They stay module bindings,
# which METHODS calls through and span tracing rebinds.
count_hyper = _lazy("counting", "count_hyper")
count_general = _lazy("counting", "count_general")
closed_form = _lazy("counting", "closed_form")
match_closed_form = _lazy("counting", "match_closed_form")
count_linear_extensions = _lazy("oracle", "count_linear_extensions")
count_line_convex = _lazy("oracle", "count_line_convex")
conjugate_spans = _lazy("oracle", "conjugate_spans")
syt_count_frobenius = _lazy("frobenius", "syt_count_frobenius")
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


def _parse_rect(text: str, offset: int, a: int = 0, k: int = 1, battery_offset: int = 0) -> Partition:
    """The rows of MxN, built once ``_rect_battery`` admits its sides and the battery (a, k) over it."""
    width, sep, height = text.partition("x")
    if not sep:
        raise ShapeParseError("expected MxN", offset)
    try:
        m, n = int(width), int(height)
    except ValueError:
        raise ShapeParseError(f"expected MxN with integer sides, got {text!r}", offset) from None
    _constructed(_rect_battery, offset, m, n, 0, 1)
    _constructed(_rect_battery, battery_offset, m, n, a, k)
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
        lam = _parse_rect(base_text[5:], offset + 5, named["a"], named["k"], offset)
    elif base_text.startswith("part:"):
        lam = _parse_partition(base_text[5:], offset + 5)
    else:
        raise ShapeParseError("battery base must start with rect: or part:", offset)
    return _constructed(BatteryShape, offset, lam, named["a"], named["k"])


# kind -> the parser of its spec, given the spec's offset
_PARSERS = {"partition": _parse_partition, "rect": _parse_rect, "battery": _parse_battery}
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
    if kind in _PARSERS:
        return _PARSERS[kind](rest, offset)
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
    """A straight partition as the battery with no extra cells, which the DP
    takes; other shapes unchanged."""
    return BatteryShape(shape, 0, 1) if isinstance(shape, tuple) else shape


def _on_rect(shape: Shape, size_cap: int) -> str | None:
    return None if _rect(shape) else "a battery over a rectangle"


def _straight(shape: Shape, size_cap: int) -> str | None:
    return None if isinstance(shape, tuple) else "a straight partition"


# hyper's cap bounds leaf-levels, not time: a leaf-level takes about 1 µs on short
# nests, 1 ms on 2x100000,a=1,k=2's one long level (ROADMAP items 4 and 26)
HYPER_LEAF_LEVELS = 2 * 10**7


def _hyper_rule(shape: Shape, size_cap: int) -> str | None:
    if not _rect(shape):
        return _on_rect(shape, size_cap)
    # C(n+k-1, k-1)·(k-1): the leaves of the (k-1)-level nested sum over an
    # n-row rectangle, times their depth; over 10^30 once min(n, k-1) is over 100
    n, r = len(shape.lam), shape.k - 1
    if min(n, r) > 100:
        shown = "more than 10^30"
    else:
        levels = comb(n + r, min(n, r)) * r
        if levels <= HYPER_LEAF_LEVELS:
            return None
        shown = levels if levels <= 10**30 else "more than 10^30"
    return f"at most {HYPER_LEAF_LEVELS} leaf-levels of its nested sum, the shape has {shown}"


# each route once, as (name, count, rule), both of (shape, size_cap). METHODS
# holds the counts, which run() calls, fault-injection tests patch and span
# tracing wraps; REGISTRY the rules, which return None when the route counts
# the shape, else the text printed after "it needs", and never count, so auto
# and --verify pick routes without running them
_ROUTES = (
    ("hyper", lambda shape, size_cap: count_hyper(*_rect(shape)), _hyper_rule),
    ("general", lambda shape, size_cap: count_general(*_rect(shape)), _on_rect),
    ("closed", lambda shape, size_cap: (lambda case_id, params: closed_form(case_id, **params))(
        *match_closed_form(*_rect(shape))),
     lambda shape, size_cap: None if _rect(shape) and match_closed_form(*_rect(shape)) else (
         "a battery over a rectangle covered by a closed-form case")),
    ("dp", lambda shape, size_cap: count_linear_extensions(_with_spans(shape), size_cap),
     lambda shape, size_cap: dp_refusal(dp_cells(shape), size_cap)),
    ("hlf", lambda shape, size_cap: syt_count_straight(shape), _straight),
    ("frobenius", lambda shape, size_cap: syt_count_frobenius(shape), _straight),
    # the conjugate layout walks a battery's stacked cells, which the DP weighs
    ("conjugate",
     lambda shape, size_cap: count_line_convex(conjugate_spans(_with_spans(shape).row_spans()), size_cap),
     lambda shape, size_cap: dp_refusal(_shape_size(shape), size_cap)),
)
METHODS = {name: count for name, count, _ in _ROUTES}
REGISTRY = {name: rule for name, _, rule in _ROUTES}

# auto runs the first applicable method, its pass ending at dp's size-cap
# refusal; --verify checks against the first applicable other method, and
# tests/test_independence.py pins what each pair may share. general comes
# before hyper, as closed and hyper both multiply one rectangle count
AUTO_ORDER = ("closed", "general", "hlf", "dp")
PARTNER_ORDER = ("frobenius", "dp", "general", "hyper", "conjugate")


def _note(line: str) -> None:
    """Print one diagnostic line on stderr; a closed stderr loses only the line."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        pass


def _run_method(name: str, shape: Shape, size_cap: int) -> tuple[int | None, int]:
    """Count through METHODS: (count, EXIT_OK), or (None, status) after a report on stderr.

    A base (a battery's λ, else the shape) of N cells with N * N.bit_length()
    past ``sys.maxsize`` has no N! to build, so every method is refused on it
    before counting (exit 3). So is a method that raises OverflowError, an
    argument past a machine-size primitive such as ``math.comb``. Any other arithmetic
    fault, a non-integer value, a vanished denominator factor or a count below 1
    (every shape has a tableau), means the route's parameters disagree with the
    shape, the same fault a verify mismatch shows.
    """
    cells = sum(shape.lam) if isinstance(shape, BatteryShape) else _shape_size(shape)
    if cells * cells.bit_length() > sys.maxsize:
        _note(f"error: method {name!r} cannot count a shape this large: its base has {cells} cells, "
              f"and {cells}! is too large to build")
        return None, EXIT_METHOD
    try:
        count = METHODS[name](shape, size_cap)
        if count < 1:
            raise ArithmeticError(f"a count of {count}, below 1")
        return count, EXIT_OK
    except OverflowError as exc:
        _note(f"error: method {name!r} cannot count a shape this large: {exc}")
        return None, EXIT_METHOD
    except ArithmeticError as exc:
        _note(f"error: inconsistent count from {name}: {exc}")
        return None, EXIT_MISMATCH


def _first_applicable(shape: Shape, order, size_cap: int, skip: str | None = None, read=()):
    """(the first route of ``order`` but ``skip`` that admits ``shape``, or None; the
    (name, needs) of each route refused before it, those in ``read`` not asked again)."""
    read, refused = dict(read), []
    for name in (name for name in order if name != skip):
        needs = read[name] if name in read else REGISTRY[name](shape, size_cap)
        if needs is None:
            return name, refused
        refused.append((name, needs))
    return None, refused


# option -> its choices, int for a non-negative integer, or None for a flag
_OPTIONS = {
    "--method": ("auto", "hyper", "general", "closed", "dp"),
    "--output": ("decimal", "factored", "json"),
    "--verify": None,
    "--size-cap": int,
}

USAGE = (f"usage: battery-syt count SHAPE [--method {{{','.join(_OPTIONS['--method'])}}}]\n{'':31}"
         f"[--output {{{','.join(_OPTIONS['--output'])}}}] [--verify] [--size-cap N]")


def _in_prose(name: str) -> str:
    """The choices of option ``name`` as the help text lists them; the first is the default."""
    first, *middle, last = _OPTIONS[name]
    return f"{first} (the default), {', '.join(middle)} or {last}"


HELP = f"""{USAGE}

Count standard Young tableaux of battery, straight, skew, and truncated shapes.

SHAPE is one of partition:5,3,1 | rect:MxN | battery:rect:MxN,a=A,k=K |
battery:part:L1,...,a=A,k=K | skew:OUTER/INNER | truncated:OUTER\\TRUNC

options (each as --option VALUE or --option=VALUE, before or after SHAPE):
  -h, --help      show this help message and exit
  --method M      {_in_prose('--method')}
  --output F      {_in_prose('--output')}
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
    args = {"method": _OPTIONS["--method"][0], "output": _OPTIONS["--output"][0], "verify": False,
            "size_cap": DEFAULT_SIZE_CAP}
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

    expr, size_cap, method = args["shape"], args["size_cap"], args["method"]
    try:
        shape = parse_shape_expr(expr)
    except ShapeParseError as exc:
        _note(f"error: cannot parse {expr!r}: {exc}")
        return EXIT_PARSE

    # one pass over the rules, so each is read once a call; --method's reads its own
    method, refused = _first_applicable(shape, AUTO_ORDER if method == "auto" else (method,), size_cap)
    if method is None:
        method, needs = refused[-1]
        _note(f"error: method {method!r} not applicable: it needs {needs}")
        return EXIT_METHOD
    # --verify's pass reads those refusals, and refuses before any count runs
    partner, refused = _first_applicable(shape, PARTNER_ORDER if args["verify"] else (), size_cap, method, refused)
    if args["verify"] and partner is None:
        why = "; ".join(f"{name} needs {needs}" for name, needs in refused)
        _note(f"error: no second method available to verify {expr!r}: {why}")
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
    # the factoring module is loaded here anyway: factorize is called next
    from .arith import FactorizationBudgetError

    try:
        factorization = factorize(count)
    except FactorizationBudgetError as exc:
        _note(f"error: {exc}")
        return EXIT_METHOD
    if args["output"] == "factored":
        print(factorization)
        return EXIT_OK
    report = {
        "shape": expr,
        "method": method,
        "count": str(count),
        "factorization": [[p, e] for p, e in factorization.factors],
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
    """Run ``main``, flush stderr and end the process with its status.

    ``main`` has flushed stdout, or pointed a closed one at devnull. After
    the last write the interpreter's exit would only tear down the modules
    loaded since start-up, ``site``'s included, which can cost more than the
    count. The package registers no ``atexit`` hook and leaves no file open,
    so ``os._exit`` loses nothing. An exception that escapes ``main`` or the
    flush ends the process the normal way, with its traceback.
    """
    status = main()
    try:
        sys.stderr.flush()
    except BrokenPipeError:  # a closed stderr loses only the diagnostics
        pass
    os._exit(status)


if __name__ == "__main__":
    console()
