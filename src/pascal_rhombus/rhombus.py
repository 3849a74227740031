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

All three are one loop, ``_cone``: the rows that columns lo..hi of row d
depend on, column interval [max(-i, lo-(d-i)), min(i, hi+(d-i))] of row i,
from the seed or from a given pair of rows.  The CLI's ``row N`` takes the
last row of :func:`iter_rows`, except from row ``_SPLIT`` on where a second
CPU is free (``_fork.second_cpu``: two CPUs in the affinity and the cgroup
quota, one thread) and the fork succeeds.  Then this process walks columns
0..i down to row N and a forked child walks columns -i..-1, each by the
recurrence and never mirrored.  Each half also computes the ``_GHOST`` = H
columns of the other half nearest the split (its ghost zone), which it needs
for the next H rows; each block of H rows is a cone on the half's columns of
its last row.  After each block the halves swap the H entries of their last
two rows nearest the split, so each repeats only an H²/2 triangle per block,
and at row N the child sends its half.  Library callers of ``iter_rows``,
``build_table`` and ``iter_column`` stay in one process.
"""

from __future__ import annotations

from collections import deque
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from ._fork import Channel

__all__ = ["RhombusTable", "build_table", "iter_column", "iter_rows"]

# The shallowest row the CLI splits (at least 1): below it the fork costs
# more than half the row saves.  The ghost zone's width, H, trades the
# repeated H²/2 triangle per block against one swap per block.
_SPLIT = 500
_GHOST = 64


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
    return _cone(-depth, depth, depth)


def iter_column(j: int, depth: int) -> Iterator[int]:
    """r[i][j] for i = |j|..depth, top down, from the cone of r[depth][j]."""
    cone = enumerate(_cone(j, j, depth) if abs(j) <= depth else ())
    return (row[min(j + i, depth - i)] for i, row in cone if i >= abs(j))  # index j - a


def _cone(lo: int, hi: int, apex: int, start: int = 0,
          rows: tuple[Sequence[int], Sequence[int]] = ((), (1,))) -> Iterator[list[int]]:
    """Rows start..apex of the cone that columns lo..hi of row ``apex`` depend
    on: columns max(-i, lo - (apex - i))..min(i, hi + (apex - i)) of row i;
    each term an entry reads is in it or off the triangle.  ``rows`` are rows
    start - 1 and start on their part of the cone: by default the seed, row
    -1 (none of it) and row 0."""
    if apex < 0:
        raise ValueError(f"depth must be >= 0, got {apex}")

    def window(i: int) -> tuple[int, int]:
        return max(-i, lo - (apex - i)), min(i, hi + (apex - i))

    (a, b), c = window(start), window(start - 1)[0]
    older, row = rows
    # row start - 1 on a-1..b+1, the columns of row start + 1 and one more each side
    q = [*(0,) * (c - a + 1), *older, *(0,) * (b + 2 - c - len(older))]
    row = list(row)
    for i in range(start + 1, apex + 1):
        na, nb = window(i)
        # p is row i-1 on na-1..nb+1, padded before the yield as the caller may
        # change the row, q row i-2 from a-1: r[i][na+t] = p[t]+p[t+1]+p[t+2]+q[s+t]
        s = na - a + 1
        p = [*(0,) * (2 - s), *row, *(0,) * (nb + 1 - b)]
        yield row
        row = list(map(add, map(add, p, p[1:]), map(add, p[2:], q[s:] if s else q)))
        q, a, b = p, na, nb
    yield row


def _row(depth: int) -> list[int]:
    """Row ``depth``, the last row of :func:`iter_rows`; from row ``_SPLIT``
    on in two processes where a second CPU is free, one column half each."""
    if depth >= _SPLIT:
        from ._fork import beside

        with beside(lambda child: _half(depth, child, left=True), "the row's") as child:
            if child is not None:
                right = _half(depth, child, left=False)
                return child.receive() + right
    for row in iter_rows(depth):
        pass
    return row


def _half(depth: int, other: Channel, left: bool) -> list[int]:
    """Row ``depth`` on columns -depth..-1 (``left``) or 0..depth, by blocks
    of ``_GHOST`` rows that end at row ``depth``.  After each block the last
    two rows swap, with ``other``, their ``_GHOST`` entries nearest the split."""
    h, start, rows = _GHOST, 0, ((), (1,))
    for end in range(depth % h or h, depth + 1, h):
        cone = _cone(-end, -1, end, start, rows) if left else _cone(0, end, end, start, rows)
        older, row = deque(cone, maxlen=2)
        if end == depth:
            break
        # the left half has row end - 1 to column 0 and row end to -1, the
        # right half row end - 1 from column -1 and row end from 0
        if left:
            next_older, next_row = other.exchange((older[-h - 2:-2], row[-h:]))
            rows = older + next_older, row + next_row
        else:
            last_older, last_row = other.exchange((older[2:h + 2], row[:h]))
            rows = last_older + older, last_row + row
        start = end
    return row


def build_table(depth: int) -> RhombusTable:
    """Rows 0..depth of :func:`iter_rows`, kept for random access."""
    return RhombusTable(iter_rows(depth))
