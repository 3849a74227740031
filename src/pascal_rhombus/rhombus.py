"""The Pascal rhombus built by its defining recurrence.

Each entry is the sum of the three nearest entries of the previous row and
the entry directly above in the row before that:

    r[i][j] = r[i-1][j-1] + r[i-1][j] + r[i-1][j+1] + r[i-2][j]

with r[0][0] = 1 the only seed (everything off the triangle |j| <= i, row -1
included, is 0).  This is OEIS A059317 read by rows.  :func:`iter_rows` and
:func:`build_table` compute whole rows, :func:`iter_column` only the cone its
last entry depends on: about half the additions at the centre, O(depth) at
the edge.  Both halves of every row are computed independently; the
left-right symmetry is a theorem the tests verify, never a storage shortcut.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Sequence

__all__ = ["RhombusTable", "build_table", "iter_column", "iter_rows"]


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
    return _cone(2 * depth, 0, depth)  # rows 0..depth lie whole in this cone


def iter_column(j: int, depth: int) -> Iterator[int]:
    """r[i][j] for i = |j|..depth, top down, from the cone of r[depth][j]."""
    cone = enumerate(_cone(depth, j, depth) if abs(j) <= depth else ())
    return (row[min(j + i, depth - i)] for i, row in cone if i >= abs(j))  # index j - a


def _cone(apex: int, j: int, depth: int) -> Iterator[list[int]]:
    """Rows 0..depth of the cone r[apex][j] depends on: columns |c - j| <= apex - i
    of row i's triangle; each term an entry reads is in it or off the triangle."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    a, b, row, q = 0, 0, [1], [0, 0, 0]  # the seed row 0 on a..b, and row -1 on -1..1
    for i in range(1, depth + 1):
        na, nb = max(-i, j - (apex - i)), min(i, j + (apex - i))  # the cone in row i
        # p is row i-1 on na-1..nb+1, padded before the yield as the caller may
        # change the row, q row i-2 from a-1: r[i][na+t] = p[t]+p[t+1]+p[t+2]+q[s+t]
        s = na - a + 1
        p = [*(0,) * (2 - s), *row, *(0,) * (nb + 1 - b)]
        yield row
        row = list(map(add, map(add, p, p[1:]), map(add, p[2:], q[s:] if s else q)))
        q, a, b = p, na, nb
    yield row


def build_table(depth: int) -> RhombusTable:
    """Rows 0..depth of :func:`iter_rows`, kept for random access."""
    return RhombusTable(iter_rows(depth))
