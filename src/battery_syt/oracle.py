"""Formula-free tableau counting by dynamic programming over order ideals.

A partial filling of a shape with 1..j corresponds to a downward-closed set of
cells, so tableaux are exactly the maximal chains of ideals. Every shape the
package handles is a line-convex diagram given by per-row column spans (a
battery's stacked cells are one-cell rows above its k-th column), so an ideal
is a tuple of per-row filled-prefix lengths. Counting walks the ideals level
by level (j cells filled, then j+1) and sums transition multiplicities, which
stays exact for any cell count the state space allows; explicit enumeration
follows the same rule.

Every counting formula in the package is cross-checked against this module.
"""

from .arith import Record
from .shapes import BatteryShape, SkewShape, TruncatedShape

__all__ = [
    "DEFAULT_SIZE_CAP",
    "count_linear_extensions",
    "linear_extension_profile",
    "count_line_convex",
    "BatteryTableau",
    "enumerate_syt",
    "is_valid_tableau",
]

DEFAULT_SIZE_CAP = 120
ENUMERATION_CAP = 12


def _row_rules(spans):
    """Per row: its index, its column span, and the span of the row above it."""
    return tuple((i, start, stop) + (spans[i - 1] if i else (0, 0))
                 for i, (start, stop) in enumerate(spans))


def _moves(rules, level):
    """Yield (state, ways, i) for every row i whose next cell an ideal may add.

    A state holds each row's filled-prefix length. The next cell of a row may
    be filled once its left neighbour (structurally) and, where the row above
    covers its column, its upper neighbour are filled.
    """
    for state, ways in level:
        for i, start, stop, up_start, up_stop in rules:
            col = start + state[i]
            if col < stop and not (up_start <= col < up_stop and col - up_start >= state[i - 1]):
                yield state, ways, i


def _span_profile(spans, size_cap: int) -> tuple[int, int]:
    spans = tuple((int(s), int(e)) for s, e in spans)
    cells = sum(e - s for s, e in spans if e > s)
    if cells > size_cap:
        raise ValueError(f"diagram has {cells} cells, above the size cap {size_cap}")
    rules = _row_rules(spans)
    level = {(0,) * len(spans): 1}
    states = 1
    for _ in range(cells):
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways, i in _moves(rules, level.items()):
            grown = state[:i] + (state[i] + 1,) + state[i + 1:]
            nxt[grown] = nxt.get(grown, 0) + ways
        level = nxt
        states += len(level)
    return sum(level.values()), states


SpanShape = BatteryShape | SkewShape | TruncatedShape


def linear_extension_profile(shape: SpanShape, size_cap: int = DEFAULT_SIZE_CAP) -> tuple[int, int]:
    """Exact tableau count of any shape with ``row_spans()`` (battery, skew or
    truncated) and the number of ideal states visited."""
    return _span_profile(shape.row_spans(), size_cap)


def count_linear_extensions(shape: SpanShape, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Exact number of standard Young tableaux of any shape with ``row_spans()``."""
    count, _ = linear_extension_profile(shape, size_cap)
    return count


def count_line_convex(spans, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Tableau count for any line-convex diagram given per-row column spans.

    Works for skew and truncated shapes as well as battery shapes.
    """
    count, _ = _span_profile(spans, size_cap)
    return count


class BatteryTableau(Record):
    """A filled battery shape: the battery column top-down, then the base rows."""

    __slots__ = ("battery", "rows")

    def __init__(self, battery: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> None:
        self._set(battery, rows)


def enumerate_syt(shape: BatteryShape, cap: int = ENUMERATION_CAP) -> list[BatteryTableau]:
    """Explicitly build every tableau of a small battery shape."""
    cells = shape.size
    if cells > cap:
        raise ValueError(f"enumeration is limited to {cap} cells, shape has {cells}")
    spans = shape.row_spans()
    rules = _row_rules(spans)
    grid = [[0] * (stop - start) for start, stop in spans]
    filled = [0] * len(spans)
    found: list[BatteryTableau] = []

    def place(value: int):
        if value > cells:
            battery = tuple(row[0] for row in grid[:shape.a])
            found.append(BatteryTableau(battery, tuple(tuple(row) for row in grid[shape.a:])))
            return
        # list() takes the open rows before the loop body changes `filled`
        for _, _, i in list(_moves(rules, [(filled, None)])):
            grid[i][filled[i]] = value
            filled[i] += 1
            place(value + 1)
            filled[i] -= 1
            grid[i][filled[i]] = 0

    place(1)
    return found


def is_valid_tableau(shape: BatteryShape, tableau: BatteryTableau) -> bool:
    """Independent check of the filling rules: bijective entries, rows and columns
    increasing, battery increasing, and battery bottom smaller than the cell it sits on."""
    lam, a, k = shape.lam, shape.a, shape.k
    if len(tableau.battery) != a or len(tableau.rows) != len(lam):
        return False
    if any(len(row) != lam[i] for i, row in enumerate(tableau.rows)):
        return False
    entries = list(tableau.battery) + [x for row in tableau.rows for x in row]
    if sorted(entries) != list(range(1, shape.size + 1)):
        return False
    for j in range(1, a):
        if tableau.battery[j - 1] >= tableau.battery[j]:
            return False
    if a and lam and tableau.battery[-1] >= tableau.rows[0][k - 1]:
        return False
    for i, row in enumerate(tableau.rows):
        for j in range(len(row)):
            if j > 0 and row[j - 1] >= row[j]:
                return False
            if i > 0 and j < lam[i - 1] and tableau.rows[i - 1][j] >= row[j]:
                return False
    return True
