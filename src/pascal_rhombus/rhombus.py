"""The Pascal rhombus built by its defining recurrence.

Each entry is the sum of the three nearest entries of the previous row and
the entry directly above in the row before that:

    r[i][j] = r[i-1][j-1] + r[i-1][j] + r[i-1][j+1] + r[i-2][j]

with r[0][0] = 1 the only seed (everything off the triangle |j| <= i, row -1
included, is 0).  This is OEIS A059317 read by rows.  :func:`iter_rows`
streams the rows, keeping the last two padded; :func:`build_table` keeps all.
Both halves of every row are computed independently; the left-right
symmetry is a theorem the tests verify, never a storage shortcut.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Sequence

__all__ = ["RhombusTable", "build_table", "iter_rows"]


class RhombusTable:
    """Rows 0..depth of the rhombus; row i holds entries for -i <= j <= i.

    The constructor only validates shape, not values, so tests can inject
    deliberately corrupted tables into the consistency checks.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        self._rows = [list(row) for row in rows]
        if not self._rows:
            raise ValueError("a table needs at least row 0")
        for i, row in enumerate(self._rows):
            if len(row) != 2 * i + 1:
                raise ValueError(f"row {i} must have {2 * i + 1} entries, got {len(row)}")

    @property
    def depth(self) -> int:
        return len(self._rows) - 1

    def entry(self, i: int, j: int) -> int:
        """r[i][j]; 0 outside the triangle |j| <= i."""
        if not 0 <= i <= self.depth:
            raise IndexError(f"row {i} not built (table depth {self.depth})")
        if abs(j) > i:
            return 0
        return self._rows[i][j + i]


def iter_rows(depth: int) -> Iterator[list[int]]:
    """Rows 0..depth, left to right, each a new list that the caller owns."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    q, row = [0, 0, 0], [1]  # row -1 padded (all 0), and the seed row 0
    for _ in range(depth):
        # padded before the yield, as the caller may change the row: r[i][j] =
        # p[t] + p[t + 1] + p[t + 2] + q[t] for t = j + i, q being row i-2
        # padded a step earlier, as long as row i; map(add) adds them in C
        p = [0, 0, *row, 0, 0]  # p[t + 1] = r[i-1][j]
        yield row
        row, q = list(map(add, map(add, p, p[1:]), map(add, p[2:], q))), p
    yield row


def build_table(depth: int) -> RhombusTable:
    """Rows 0..depth of :func:`iter_rows`, kept for random access."""
    return RhombusTable(iter_rows(depth))
