"""Exhaustive lattice-path oracle.

Paths use four steps: U = (1, 1), D = (1, -1), H = (1, 0) and the long
level step H2 = (2, 0).  The *length* of a path is its total x-extent (so
H2 contributes 2), its *height* is the final y-coordinate, and a path is
*non-negative* when no prefix dips below the x-axis.

Everything here is deliberately brute force: one walker enumerates every
path of length <= max_n, with no memo.  It goes breadth first and keeps
each path as one byte, which holds the path's final height and whether it
has stayed non-negative; the paths of length n are one ``bytes`` object
with a byte per path.  They are the U, D and H extensions of the paths of
length n - 1 and the H2 extensions of those of length n - 2, each extension
one ``bytes.translate`` through a step table.  Each extension is tallied
over its own paths: one translate through a table that takes the step and
drops the non-negative flag from every path but a closed one, then one
``bytes.count`` per height the extension can reach and one of the closed
paths.  So no tally is ever derived from the tally of a shorter length.
This is the ground truth the fast recurrence table and the generating
functions are checked against, so it is written to be obviously correct
rather than fast.  Its time and memory grow about 3.3x per unit of length
(a walk to 14 takes about 0.4 s and holds about 11 MB at its peak, on
CPython 3.11, 2-CPU x86-64); how far to walk is the caller's choice.  The
one limit here is of the format: lengths past ``MAX_LENGTH`` have heights
that do not fit in a byte, and are refused.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["count_by_height", "count_motzkin2", "walk_paths"]

# a path's byte is its height + _ZERO, plus _NONNEGATIVE while it has not
# dipped below 0; heights within +-MAX_LENGTH keep that in 1..255
MAX_LENGTH = 63
_ZERO = MAX_LENGTH + 1
_NONNEGATIVE = 0x80


def _step_table(rise: int) -> bytes:
    """The byte of each path after one step of this rise (states a walk
    within MAX_LENGTH never reaches map to 0)."""
    table = bytearray(256)
    for flag in (0, _NONNEGATIVE):
        for height in range(-MAX_LENGTH, MAX_LENGTH + 1):
            after = height + rise
            if abs(after) <= MAX_LENGTH:
                table[height + _ZERO | flag] = after + _ZERO | (flag if after >= 0 else 0)
    return bytes(table)


_CLOSED = _ZERO | _NONNEGATIVE  # a non-negative path at height 0
# for each rise, the byte of each path after the step (H and H2 keep every
# byte) and its byte to tally: the flag dropped, except on a closed path
_STEP = {rise: _step_table(rise) for rise in (1, -1, 0)}
_TALLY = {rise: bytes(b if b == _CLOSED else b & ~_NONNEGATIVE for b in table)
          for rise, table in _STEP.items()}


def _extensions(frontier: bytes, previous: bytes, n: int) -> Iterator[tuple[bytes, int, range]]:
    """The paths of length n >= 1 in four parts, each as the paths it
    extends, the rise of its step and the heights its paths can reach: the
    U, D and H extensions of ``frontier``, the paths of length n - 1, and
    the H2 extensions of ``previous``, those of n - 2."""
    yield frontier, 1, range(2 - n, n + 1)
    yield frontier, -1, range(-n, n - 1)
    yield frontier, 0, range(1 - n, n)
    yield previous, 0, range(2 - n, n - 1)


def walk_paths(max_n: int) -> tuple[list[dict[int, int]], list[int]]:
    """For each length n <= max_n, the number of paths per final height
    (heights no path reaches omitted) and of non-negative paths ending at 0."""
    if max_n < 0:
        raise ValueError(f"length must be >= 0, got {max_n}")
    if max_n > MAX_LENGTH:
        raise ValueError(
            f"length {max_n} is past {MAX_LENGTH}, the longest length whose heights fit in a byte"
        )
    by_height, closed = [], []
    previous, frontier = b"", bytes([_CLOSED])  # lengths -1 and 0
    for n in range(max_n + 1):
        counts, closed_count, kept = dict.fromkeys(range(-n, n + 1), 0), 0, []
        # each part is tallied from one translate of the paths it extends;
        # only a level still to be extended is made and joined, so the
        # longest never is
        parts = _extensions(frontier, previous, n) if n else [(frontier, 0, range(1))]
        for extended, rise, heights in parts:
            tally = extended.translate(_TALLY[rise])
            closed_here = tally.count(_CLOSED)  # at height 0, flag kept
            closed_count += closed_here
            counts[0] += closed_here
            for height in heights:
                counts[height] += tally.count(height + _ZERO)
            del tally  # before the next part is tallied
            if 0 < n < max_n:
                kept.append(extended.translate(_STEP[rise]) if rise else extended)
        by_height.append({h: c for h, c in counts.items() if c})
        closed.append(closed_count)
        if kept:
            previous, frontier = frontier, b"".join(kept)
    return by_height, closed


def count_by_height(n: int) -> dict[int, int]:
    """Number of unconstrained paths of length n per final height.

    Heights that no path reaches are omitted from the result.
    """
    return walk_paths(n)[0][n]


def count_motzkin2(n: int) -> int:
    """Non-negative paths of length n ending at height 0 (steps U, D, H, H2)."""
    return walk_paths(n)[1][n]
