"""Shared combinatorial helpers for the test suite, and a fresh-interpreter probe."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import battery_syt
from battery_syt.arith import binomial
from battery_syt.shapes import conjugate, rotated_complement, syt_count_straight


def partitions_of(n, largest=None):
    """All partitions of n with parts at most largest, largest part first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def all_partitions_up_to(n):
    """Every partition of every size from 0 to n."""
    for size in range(n + 1):
        yield from partitions_of(size)


def subdiagrams(m, n):
    """All partitions fitting inside an m-by-n box (at most n parts, each at most m)."""
    def rec(rows_left, cap):
        yield ()
        if rows_left == 0:
            return
        for first in range(1, cap + 1):
            for rest in rec(rows_left - 1, first):
                yield (first,) + rest
    seen = set()
    for p in rec(n, m):
        if p not in seen:
            seen.add(p)
            yield p


def bullet_profiles(columns, max_height):
    """Weakly decreasing column-height tuples (t_1 >= ... >= t_columns >= 0), t_1 <= max_height."""
    if columns == 0:
        yield ()
        return
    for h in range(max_height, -1, -1):
        for rest in bullet_profiles(columns - 1, h):
            yield (h,) + rest


def general_by_profiles(m, n, a, k):
    """Reference for ``count_general``: the pivot decomposition summed literally.

    Each tableau of the battery above column k of the m-by-n rectangle splits
    at the pivot entry into a sub-diagram with at most k-1 columns (the bullet
    profile), its rotated complement in the rectangle, and
    binomial(a + s - 1, s) interleavings of the battery entries, s the
    profile's size. There are C(n+k-1, k-1) profiles.
    """
    total = 0
    for profile in bullet_profiles(k - 1, n):
        cells = sum(profile)
        bullet_rows = conjugate(tuple(h for h in profile if h > 0))
        total += (
            binomial(a + cells - 1, cells)
            * syt_count_straight(bullet_rows)
            * syt_count_straight(rotated_complement(m, n, bullet_rows))
        )
    return total


# stdlib modules the CLI leaves unloaded unless a call needs them
WATCHED_STDLIB = ("fractions", "decimal", "json", "dataclasses", "inspect")


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with the package's source on its path.

    Returns its standard output lines and the set of modules it had loaded when
    it finished, of those of the package and of ``WATCHED_STDLIB``.
    """
    probe = (
        f"{code}\n"
        "import sys\n"
        "print(sorted(m for m in sys.modules\n"
        f"            if m.partition('.')[0] == 'battery_syt' or m in {WATCHED_STDLIB!r}))\n"
    )
    src = str(Path(battery_syt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.splitlines()
    return out[:-1], set(ast.literal_eval(out[-1]))
