"""Partitions, hook lengths, and the shape types accepted by the counters.

A partition is a plain tuple of weakly decreasing positive row lengths.
Skew, truncated, and battery shapes are small immutable records (``Record``;
never tuples, so a tuple is always a straight partition) that canonicalize and
validate their fields in ``__init__``; a record cannot change afterwards, so
every shape that exists is valid. The cell limits of the counters
that walk a shape cell by cell live here too, so the CLI reads them without
importing those counters.
"""

from math import factorial, prod

from . import _EXPORTS, Record

__all__ = list(_EXPORTS["shapes"])

# cell limits of the order-ideal DP (the default of --size-cap) and of
# explicit enumeration
DEFAULT_SIZE_CAP = 120
ENUMERATION_CAP = 12

Partition = tuple[int, ...]


def as_partition(parts: "Iterable[int]") -> Partition:
    """Canonicalize to a tuple: trailing zeros dropped, weakly decreasing, positive."""
    rows = tuple(int(x) for x in parts)
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    for i, x in enumerate(rows):
        if x <= 0:
            raise ValueError(f"row lengths must be positive, got {x} at row {i + 1}")
        if i > 0 and rows[i - 1] < x:
            raise ValueError(f"row lengths must be weakly decreasing, got {rows[i - 1]} before {x}")
    return rows


def conjugate(p: Partition) -> Partition:
    """Column heights of the diagram, i.e. the transposed partition."""
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > j) for j in range(p[0]))


def hook_lengths(p: Partition) -> tuple[int, ...]:
    """Hook length of every cell, row by row.

    The hook of cell (i, j) counts the cells strictly to its right, strictly
    below it, and the cell itself.
    """
    cols = conjugate(p)
    return tuple(
        (p[i] - (j + 1)) + (cols[j] - (i + 1)) + 1
        for i in range(len(p))
        for j in range(p[i])
    )


def syt_count_straight(p: Partition) -> int:
    """Number of standard Young tableaux of a straight shape (hook length formula)."""
    if not p:
        return 1
    # n! first: past machine size it raises OverflowError at once, before the
    # hooks walk every cell; n! is divisible by the hook product, so floor
    # division is exact
    total = factorial(sum(p))
    return total // prod(hook_lengths(p))


def rotated_complement(m: int, n: int, mu: Partition) -> Partition:
    """Complement of mu inside the m-by-n rectangle, read after a 180 degree turn.

    The result has parts (m - mu_n, ..., m - mu_1) with zero parts dropped and
    size m*n - |mu|.
    """
    mu = as_partition(mu)
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


def _check_line_convex(spans):
    """Every column of the row-contiguous cell set must also be contiguous."""
    # between two consecutive span ends every column lies in the same rows, so
    # one column per run stands for them all, however wide the shape
    for col in sorted({x for span in spans for x in span})[:-1]:
        rows = [i for i, (s, e) in enumerate(spans) if s <= col < e]
        if rows and rows[-1] - rows[0] + 1 != len(rows):
            raise ValueError(f"column {col + 1} is not contiguous: occupied rows {[r + 1 for r in rows]}")


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
        _check_line_convex(self.row_spans())

    def row_spans(self) -> tuple[tuple[int, int], ...]:
        cuts = self.truncation + (0,) * (len(self.base.outer) - len(self.truncation))
        return tuple((s, e - c) for (s, e), c in zip(self.base.row_spans(), cuts))

    @property
    def size(self) -> int:
        return self.base.size - sum(self.truncation)


class BatteryShape(Record):
    """A partition with a column of a extra cells attached above its k-th column.

    The column index k must point at an existing column of the base; an empty
    base is allowed only in the fully degenerate case a == 0.
    """

    __slots__ = ("lam", "a", "k")

    def __init__(self, lam: Partition, a: int, k: int) -> None:
        self._set(as_partition(lam), a, k)
        if a < 0:
            raise ValueError(f"battery column length must be non-negative, got {a}")
        if k < 1:
            raise ValueError(f"column index must be at least 1, got {k}")
        if not self.lam:
            if a > 0:
                raise ValueError("an empty base cannot carry a battery column")
        elif k > self.lam[0]:
            raise ValueError(f"base {self.lam} has no column {k} (widest row is {self.lam[0]})")

    @property
    def size(self) -> int:
        return sum(self.lam) + self.a

    def is_rectangle(self) -> bool:
        return bool(self.lam) and all(row == self.lam[0] for row in self.lam)

    def row_spans(self) -> tuple[tuple[int, int], ...]:
        """The shape as a line-convex diagram: a stacked cells, then the base rows."""
        return ((self.k - 1, self.k),) * self.a + tuple((0, row) for row in self.lam)
