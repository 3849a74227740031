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
one ``bytes.translate`` through a step table.  The tallies are
``bytes.count`` of each state over the paths themselves, so no tally is
ever derived from the tally of a shorter length.  This is the ground truth
the fast recurrence table and the generating functions are checked
against, so it is written to be obviously correct rather than fast.  Its
time and memory grow about 3.3x per unit of length (a walk to 14 takes
about 1 s and peaks at about 11 MB); how far to walk is the caller's
choice.  The one limit here is of the format: lengths past ``MAX_LENGTH``
have heights that do not fit in a byte, and are refused.
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


_UP, _DOWN = _step_table(1), _step_table(-1)   # H and H2 keep every byte


def _extensions(frontier: bytes, previous: bytes) -> Iterator[bytes]:
    """The paths of the next length, one part at a time: the U, D and H
    extensions of ``frontier`` and the H2 extensions of ``previous``, the
    paths one unit shorter."""
    yield frontier.translate(_UP)
    yield frontier.translate(_DOWN)
    yield frontier
    yield previous


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
    previous, frontier = b"", bytes([_ZERO | _NONNEGATIVE])  # lengths -1 and 0
    for n in range(max_n + 1):
        counts, closed_count, kept = dict.fromkeys(range(-n, n + 1), 0), 0, []
        # each part is tallied as it is made; only a level still to be
        # extended is kept and joined, so the longest never is
        for part in _extensions(frontier, previous) if n else (frontier,):
            for height in counts:
                counts[height] += part.count(height + _ZERO)
                if height >= 0:
                    nonnegative = part.count(height + _ZERO | _NONNEGATIVE)
                    counts[height] += nonnegative
                    if height == 0:
                        closed_count += nonnegative
            if 0 < n < max_n:
                kept.append(part)
            del part  # before the next part is made
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
