"""Partitions, hook lengths, and the shape types accepted by the counters.

A partition is a plain tuple of weakly decreasing positive row lengths.
Skew, truncated, and battery shapes are small immutable records (``Record``;
never tuples, so a tuple is always a straight partition) that canonicalize and
validate their fields in ``__init__``; a record cannot change afterwards, so
every shape that exists is valid. The order-ideal DP's cell limit, the cells
it counts against it (``dp_cells``) and its refusal above it (``dp_refusal``)
live here too, as does the rectangle rule the counters and the CLI share
(``_rect_battery``), so the CLI reads them all without importing the DP or a
counter.

Each public function reads its partition once, through ``as_partition``; the
private bodies ``_columns``, ``_hooks`` and ``_hlf`` take it as read, as does
the DP's middle-cut check, which calls ``_hlf`` on a rectangle it built.
"""

from math import factorial
from operator import mul

from . import _EXPORTS, Record, _integral

__all__ = list(_EXPORTS["shapes"])

# cell limit of the order-ideal DP (the default of --size-cap)
DEFAULT_SIZE_CAP = 120

Partition = tuple[int, ...]


def as_partition(parts: "Iterable[int]") -> Partition:
    """Canonicalize to a tuple: trailing zeros dropped, weakly decreasing, positive;
    a row length that is not a whole number is refused."""
    rows = tuple(map(_integral, parts))
    # one slice after an index walk: a slice per zero is quadratic in their number
    end = len(rows)
    while end and rows[end - 1] == 0:
        end -= 1
    rows = rows[:end]
    for i, x in enumerate(rows):
        if x <= 0:
            raise ValueError(f"row lengths must be positive, got {x} at row {i + 1}")
        if i > 0 and rows[i - 1] < x:
            raise ValueError(f"row lengths must be weakly decreasing, got {rows[i - 1]} before {x}")
    return rows


def conjugate(p: Partition) -> Partition:
    """Column heights of the diagram, i.e. the transposed partition; ``p`` is
    read through ``as_partition``."""
    return _columns(as_partition(p))


def _columns(p: Partition) -> Partition:
    """``conjugate`` of a checked partition, in one walk from its shortest row
    up: the columns row i reaches and no shorter row does have i + 1 cells."""
    cols = []
    for i in reversed(range(len(p))):
        cols += [i + 1] * (p[i] - len(cols))
    return tuple(cols)


def hook_lengths(p: Partition) -> tuple[int, ...]:
    """Hook length of every cell, row by row.

    The hook of cell (i, j) counts the cells strictly to its right, strictly
    below it, and the cell itself; ``p`` is read through ``as_partition``.
    """
    return _hooks(as_partition(p))


def _hooks(p: Partition) -> tuple[int, ...]:
    cols = _columns(p)
    return tuple(
        (p[i] - (j + 1)) + (cols[j] - (i + 1)) + 1
        for i in range(len(p))
        for j in range(p[i])
    )


def syt_count_straight(p: Partition) -> int:
    """Number of standard Young tableaux of a straight shape (hook length formula);
    ``p`` is read through ``as_partition``."""
    return _hlf(as_partition(p))


def _hlf(p: Partition) -> int:
    if not p:
        return 1
    # n! first: past machine size it raises OverflowError at once, before the
    # hooks walk every cell; n! is divisible by the hook product, so a
    # remainder can only mean wrong hooks
    total = factorial(sum(p))
    # the hooks pairwise (an odd last one carries over), as a running product is
    # quadratic in their count; in its own loop, as frobenius, this route's
    # --verify partner, calls battery_syt._product and the pair shares no code
    hooks = list(_hooks(p))
    while len(hooks) > 1:
        hooks = [*map(mul, hooks[::2], hooks[1::2]), *hooks[len(hooks) & ~1:]]
    count, rem = divmod(total, hooks[0])
    if rem:
        raise ArithmeticError(f"the hook product does not divide {sum(p)}!")
    return count


def rotated_complement(m: int, n: int, mu: Partition) -> Partition:
    """Complement of mu inside the m-by-n rectangle, read after a 180 degree turn.

    The result has parts (m - mu_n, ..., m - mu_1) with zero parts dropped and
    size m*n - |mu|; m and n must be whole numbers.
    """
    m, n, mu = _integral(m), _integral(n), as_partition(mu)
    if len(mu) > n or (mu and mu[0] > m):
        raise ValueError(f"{mu} does not fit inside a {m}x{n} rectangle")
    padded = mu + (0,) * (n - len(mu))
    return tuple(m - v for v in reversed(padded) if m - v > 0)


class SkewShape(Record):
    """Cells of an outer partition with an inner partition removed from its corner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = ()) -> None:
        self._set(as_partition(outer), as_partition(inner))
        if len(self.inner) > len(self.outer):
            raise ValueError(f"inner shape {self.inner} has more rows than outer {self.outer}")
        for i, v in enumerate(self.inner):
            if v > self.outer[i]:
                raise ValueError(f"inner row {v} exceeds outer row {self.outer[i]} at row {i + 1}")

    def row_spans(self) -> tuple[tuple[int, int], ...]:
        """Half-open column range occupied by each row (0-based)."""
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return tuple((inner[i], self.outer[i]) for i in range(len(self.outer)))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)


def _column_runs(spans):
    """(left, right, top, bottom) of each run of columns between consecutive
    ends of non-empty spans that has cells: rows top..bottom-1, and no others,
    cover it. Raises ValueError for the first column whose rows have a gap.

    Walking down the rows, a column's cover switches on at each row that
    covers it where the row above does not, so its rows are contiguous when
    that happens once, at row top. One sweep over the sorted span ends sums
    per run the switches, their rows and the covering rows, each from steps
    up and down at the columns where they begin and end.
    """
    steps, above = [], (0, 0)  # (column, switches, their rows, covering rows)
    for i, (s, e) in enumerate(spans):
        if e > s:
            steps += [(s, 0, 0, 1), (e, 0, 0, -1)]
            a, b = above if above[0] < above[1] else (e, e)
            for lo, hi in ((s, min(e, a)), (max(s, b), e)):  # this row's cells outside the row above
                if lo < hi:
                    steps += [(lo, 1, i, 0), (hi, -1, -i, 0)]
        above = (s, e)
    steps.sort()
    runs, on, top, covering = [], 0, 0, 0
    for (left, d_on, d_top, d_covering), (right, *_) in zip(steps, steps[1:]):
        on, top, covering = on + d_on, top + d_top, covering + d_covering
        if left < right and covering:
            if on != 1:
                rows = [r + 1 for r, (s, e) in enumerate(spans) if s <= left < e]
                raise ValueError(f"column {left + 1} is not contiguous: occupied rows {rows}")
            runs.append((left, right, top, top + covering))
    return runs


class TruncatedShape(Record):
    """Skew shape with additional cells deleted row by row from the northeastern corner."""

    __slots__ = ("base", "truncation")

    def __init__(self, base: SkewShape, truncation: Partition) -> None:
        self._set(base, as_partition(truncation))
        spans = self.base.row_spans()
        if len(self.truncation) > len(spans):
            raise ValueError("truncation has more rows than the base shape")
        for i, cut in enumerate(self.truncation):
            start, stop = spans[i]
            if cut > stop - start:
                raise ValueError(f"cannot delete {cut} cells from row {i + 1} of length {stop - start}")
        _column_runs(self.row_spans())

    def row_spans(self) -> tuple[tuple[int, int], ...]:
        cuts = self.truncation + (0,) * (len(self.base.outer) - len(self.truncation))
        return tuple((s, e - c) for (s, e), c in zip(self.base.row_spans(), cuts))

    @property
    def size(self) -> int:
        return self.base.size - sum(self.truncation)


def _battery_column(a: int, k: int, width: int, named: "Callable[[], str]") -> tuple[int, int]:
    """(a, k) as integers, refused unless a column of a cells can stand above
    column k of a base whose widest row is ``width`` (0 for an empty base, which
    carries only a = 0). ``named()`` names the base, called only to refuse k."""
    a, k = _integral(a), _integral(k)
    if a < 0:
        raise ValueError(f"battery column length must be non-negative, got {a}")
    if k < 1:
        raise ValueError(f"column index must be at least 1, got {k}")
    if not width:
        if a > 0:
            raise ValueError("an empty base cannot carry a battery column")
    elif k > width:
        raise ValueError(f"{named()} has no column {k} (widest row is {width})")
    return a, k


class BatteryShape(Record):
    """A partition with a column of a extra cells attached above its k-th column.

    The column index k must point at an existing column of the base; an empty
    base is allowed only in the fully degenerate case a == 0.
    """

    __slots__ = ("lam", "a", "k")

    def __init__(self, lam: Partition, a: int, k: int) -> None:
        lam = as_partition(lam)
        self._set(lam, *_battery_column(a, k, lam[0] if lam else 0, lambda: f"base {lam}"))

    @property
    def size(self) -> int:
        return sum(self.lam) + self.a

    def is_rectangle(self) -> bool:
        return bool(self.lam) and self.lam[0] == self.lam[-1]  # a partition's rows weakly decrease

    def row_spans(self) -> tuple[tuple[int, int], ...]:
        """A stacked cells, then the base rows: the layout ``conjugate_spans`` reads; the DP weighs the battery."""
        return ((self.k - 1, self.k),) * self.a + tuple((0, row) for row in self.lam)


def _rect_battery(m: int, n: int, a: int, k: int) -> tuple[int, int, int, int]:
    """(m, n, a, k) as the integers of the battery [(m^n), a, k], refused as
    ``BatteryShape`` refuses it: by the column rule on the width m, naming the
    rectangle by its sides, never by its n rows."""
    m, n = _integral(m), _integral(n)
    if m < 1 or n < 1:
        raise ValueError(f"a rectangle needs sides of at least 1, got {m}x{n}")
    return (m, n, *_battery_column(a, k, m, lambda: f"rectangle {m}x{n}"))


def dp_cells(shape) -> int:
    """The cells the order-ideal DP counts against its size cap.

    A battery over any base is walked over its base only, its a stacked cells
    carried as one weight (see ``oracle``), so it counts the base's cells
    plus one when a > 0. Any other shape, a straight partition included,
    counts all its cells.
    """
    if isinstance(shape, tuple):
        return sum(shape)
    if isinstance(shape, BatteryShape):
        return sum(shape.lam) + min(shape.a, 1)
    return shape.size


def dp_refusal(cells: int, size_cap: int) -> str | None:
    """None when the order-ideal DP walks ``cells`` cells under ``size_cap``;
    else what it needs, the one refusal of the CLI's ``dp`` and ``conjugate``
    rules and the oracle's ValueError. A caller passes the cells its layout
    walks: ``dp_cells`` of a shape, or all of a conjugate layout's cells."""
    return None if cells <= size_cap else f"at most {size_cap} cells (--size-cap), the shape has {cells} to walk"
