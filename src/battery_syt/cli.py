"""Command-line front end: parse a shape expression, count its tableaux by the
requested method, optionally cross-verify with an independent method, and print
the result as a decimal, a prime factorization, or JSON.

Exit codes: 0 success, 2 parse error, 3 method inapplicable, 4 verification
mismatch or an inconsistent count (an arithmetic fault inside a counting route).
"""

import argparse
import sys
import time
from typing import Callable, NamedTuple, Optional, Union

from .arith import Factorization, Record, factorize
from .counting import closed_form, count_general, count_hyper, match_closed_form
from .oracle import (
    DEFAULT_SIZE_CAP,
    ENUMERATION_CAP,
    count_line_convex,  # noqa: F401  (kept as a module binding that span tracing rebinds)
    count_linear_extensions,
    enumerate_syt,
)
from .shapes import BatteryShape, Partition, SkewShape, TruncatedShape, as_partition, syt_count_straight

__all__ = ["ShapeParseError", "parse_shape_expr", "run", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_METHOD = 3
EXIT_MISMATCH = 4

Shape = Union[Partition, SkewShape, TruncatedShape, BatteryShape]


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


def _parse_partition(text: str, offset: int) -> Partition:
    try:
        return as_partition(_parse_int_list(text, offset))
    except ShapeParseError:
        raise
    except ValueError as exc:
        raise ShapeParseError(str(exc), offset) from None


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
    return (m,) * n


def _parse_battery(text: str, offset: int) -> BatteryShape:
    fields = text.split(",")
    if len(fields) < 3:
        raise ShapeParseError("expected base, a=A and k=K", offset)
    tail = fields[-2:]
    base_text = ",".join(fields[:-2])
    tail_offset = offset + len(base_text) + 1
    named = {}
    pos = tail_offset
    for token in tail:
        key, sep, val = token.partition("=")
        if not sep or key not in ("a", "k"):
            raise ShapeParseError(f"expected a=A or k=K, got {token!r}", pos)
        try:
            named[key] = int(val)
        except ValueError:
            raise ShapeParseError(f"expected an integer for {key}=, got {val!r}", pos) from None
        pos += len(token) + 1
    if set(named) != {"a", "k"}:
        raise ShapeParseError("both a= and k= are required", tail_offset)
    if base_text.startswith("rect:"):
        lam = _parse_rect(base_text[5:], offset + 5)
    elif base_text.startswith("part:"):
        lam = _parse_partition(base_text[5:], offset + 5)
    else:
        raise ShapeParseError("battery base must start with rect: or part:", offset)
    try:
        return BatteryShape(lam, named["a"], named["k"])
    except ValueError as exc:
        raise ShapeParseError(str(exc), offset) from None


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
    if kind == "skew":
        outer_text, slash, inner_text = rest.partition("/")
        if not slash:
            raise ShapeParseError("expected outer/inner", offset)
        outer = _parse_partition(outer_text, offset)
        inner = _parse_partition(inner_text, offset + len(outer_text) + 1)
        try:
            return SkewShape(outer, inner)
        except ValueError as exc:
            raise ShapeParseError(str(exc), offset) from None
    if kind == "truncated":
        outer_text, slash, cut_text = rest.partition("\\")
        if not slash:
            raise ShapeParseError("expected outer\\trunc", offset)
        outer = _parse_partition(outer_text, offset)
        cut = _parse_partition(cut_text, offset + len(outer_text) + 1)
        try:
            return TruncatedShape(SkewShape(outer), cut)
        except ValueError as exc:
            raise ShapeParseError(str(exc), offset) from None
    raise ShapeParseError(f"unknown shape kind {kind!r}", 0)


def _rect_coords(shape: BatteryShape) -> tuple[int, int, int, int]:
    return shape.lam[0], len(shape.lam), shape.a, shape.k


def _rect_battery(shape: Shape) -> bool:
    return isinstance(shape, BatteryShape) and shape.is_rectangle()


def _shape_size(shape: Shape) -> int:
    return sum(shape) if isinstance(shape, tuple) else shape.size


def _count_closed(shape: BatteryShape, size_cap: int) -> int:
    case_id, params = match_closed_form(*_rect_coords(shape))
    return closed_form(case_id, **params)


def _count_dp(shape: Shape, size_cap: int) -> int:
    if isinstance(shape, tuple):
        shape = BatteryShape(shape, 0, 1)
    return count_linear_extensions(shape, size_cap)


def _count_enum(shape: Shape, size_cap: int) -> int:
    return len(enumerate_syt(BatteryShape(shape, 0, 1) if isinstance(shape, tuple) else shape))


class Method(NamedTuple):
    """A counting method: what shapes it needs, a cheap static test for that, and the count.

    ``applies`` never evaluates a count, so auto and --verify can pick methods
    without running them.
    """

    needs: str  # formatted with size_cap and the shape's size for the not-applicable message
    applies: Callable[[Shape, int], bool]
    count: Callable[[Shape, int], int]


REGISTRY = {
    "hyper": Method(
        "a battery over a rectangle",
        lambda shape, size_cap: _rect_battery(shape),
        lambda shape, size_cap: count_hyper(*_rect_coords(shape)),
    ),
    "general": Method(
        "a battery over a rectangle",
        lambda shape, size_cap: _rect_battery(shape),
        lambda shape, size_cap: count_general(*_rect_coords(shape)),
    ),
    "closed": Method(
        "a battery over a rectangle covered by a closed-form case",
        lambda shape, size_cap: _rect_battery(shape)
        and match_closed_form(*_rect_coords(shape)) is not None,
        _count_closed,
    ),
    "dp": Method(
        "at most {size_cap} cells (--size-cap), the shape has {size}",
        lambda shape, size_cap: _shape_size(shape) <= size_cap,
        _count_dp,
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
        _count_enum,
    ),
}

# monkeypatch point for fault-injection tests; run() counts only through it
METHODS = {name: method.count for name, method in REGISTRY.items()}

# auto runs the first applicable method, falling back to dp for its size-cap
# refusal; --verify checks against the first applicable other method, so a
# rectangle battery counted by general is checked by dp up to the size cap and
# by hyper above it
AUTO_ORDER = ("closed", "general", "hlf", "dp")
PARTNER_ORDER = ("dp", "hyper", "general", "closed", "hlf", "enum")


def _run_method(name: str, shape: Shape, size_cap: int) -> Optional[int]:
    """Count through METHODS; an arithmetic fault is reported on stderr and gives None.

    A non-integer value or a vanished denominator factor means the route's
    parameters disagree with the shape, the same fault a verify mismatch shows.
    """
    try:
        return METHODS[name](shape, size_cap)
    except ArithmeticError as exc:
        print(f"error: inconsistent count from {name}: {exc}", file=sys.stderr)
        return None


def _first_applicable(shape: Shape, order, size_cap: int, skip: Optional[str] = None) -> Optional[str]:
    return next(
        (name for name in order if name != skip and REGISTRY[name].applies(shape, size_cap)),
        None,
    )


class RunReport(Record):
    __slots__ = ("shape", "method", "count", "factorization", "verified_methods", "elapsed_ms")

    def __init__(
        self,
        shape: str,
        method: str,
        count: int,
        factorization: Optional[Factorization],
        verified_methods: list[str],
        elapsed_ms: float,
    ) -> None:
        self._set(shape, method, count, factorization, verified_methods, elapsed_ms)

    def to_json(self) -> str:
        # only --output json serializes, so the other outputs never import json
        import json

        return json.dumps({
            "shape": self.shape,
            "method": self.method,
            "count": str(self.count),
            "factorization": [[p, e] for p, e in self.factorization.factors]
            if self.factorization is not None
            else None,
            "verified_methods": self.verified_methods,
            "elapsed_ms": self.elapsed_ms,
        })


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="battery-syt",
        description="Count standard Young tableaux of battery, straight, skew, and truncated shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = sub.add_parser("count", help="count tableaux of a shape expression")
    count.add_argument("shape", help="e.g. battery:rect:11x7,a=1,k=6 or partition:3,2,1")
    count.add_argument("--method", choices=["auto", "hyper", "general", "closed", "dp"], default="auto")
    count.add_argument("--output", choices=["decimal", "factored", "json"], default="decimal")
    count.add_argument("--verify", action="store_true",
                       help="compute by a second independent method and compare")
    count.add_argument("--size-cap", type=_non_negative_int, default=DEFAULT_SIZE_CAP, metavar="N",
                       help="cell limit for the dynamic-programming counter")
    return parser


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    try:
        shape = parse_shape_expr(args.shape)
    except ShapeParseError as exc:
        print(f"error: cannot parse {args.shape!r}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    method = args.method
    if method == "auto":
        method = _first_applicable(shape, AUTO_ORDER, args.size_cap) or "dp"
    if not REGISTRY[method].applies(shape, args.size_cap):
        needs = REGISTRY[method].needs.format(size_cap=args.size_cap, size=_shape_size(shape))
        print(f"error: method {method!r} not applicable: it needs {needs}", file=sys.stderr)
        return EXIT_METHOD
    partner = None
    if args.verify:
        # refuse before counting, so a shape with no partner costs no primary count
        partner = _first_applicable(shape, PARTNER_ORDER, args.size_cap, skip=method)
        if partner is None:
            print(f"error: no second method available to verify {args.shape!r}", file=sys.stderr)
            return EXIT_METHOD
    started = time.perf_counter()
    count = _run_method(method, shape, args.size_cap)
    if count is None:
        return EXIT_MISMATCH

    verified = []
    if partner is not None:
        check = _run_method(partner, shape, args.size_cap)
        if check is None:
            return EXIT_MISMATCH
        if check != count:
            print(
                f"error: verification mismatch: {method} gives {count}, {partner} gives {check}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        verified = [method, partner]
        print(f"verified: {method} == {partner}", file=sys.stderr)

    factorization = factorize(count) if args.output in ("factored", "json") and count >= 1 else None
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = RunReport(args.shape, method, count, factorization, verified, elapsed_ms)

    if args.output == "decimal":
        print(report.count)
    elif args.output == "factored":
        print(report.factorization)
    else:
        print(report.to_json())
    return EXIT_OK


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
