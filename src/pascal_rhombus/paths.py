"""Exhaustive lattice-path oracle.

Paths use four steps: U = (1, 1), D = (1, -1), H = (1, 0) and the long
level step H2 = (2, 0).  The *length* of a path is its total x-extent (so
H2 contributes 2), its *height* is the final y-coordinate, and a path is
*non-negative* when no prefix dips below the x-axis.

Everything here is deliberately brute force: one walker enumerates every
path of length <= max_n, with no memo.  It keeps each path as one byte,
which holds the path's final height and whether it has stayed
non-negative, and goes level by level, a level being one ``bytes``
object with a byte per path.  The paths of length n are the U, D and H
extensions of the paths of length n - 1 and the H2 extensions of those of
length n - 2, each extension one ``bytes.translate`` through a step table.
A level that would be longer than ``_SLICE`` paths is not joined: each of
its four parts is walked on to max_n apart from the rest, the U part with
the paths of length n - 1 and the others with none.  Every longer path
extends a path of one part or steps over length n with H2 from a path of
length n - 1, so the four walks count every path once, and no slice of a
length is ever longer than the slice it came from.  Each extension is tallied over its own paths: one
translate through a table that takes the step and drops the non-negative
flag from every path but a closed one gives the tally, on which the
closed paths and the heights within 2 of 0 are counted, one
``bytes.count`` each.  The tally is then made again without the paths
already counted, and the heights further out are counted in rings (within
5, within 9, the rest), each ring on what the rings before it leave.  The
paths counted must be all of the extension's: one at a height it cannot
reach stops the walk with an error.  So no tally is ever derived from the
tally of a shorter length, nor from the paths of a slice taken together.
This is the ground truth the fast recurrence table and the generating
functions are checked against, so it is written to be obviously correct
rather than fast.  Its time grows about 3.3x per unit of length, its
memory by a few slices (a walk to 14 takes about 0.2 s and one to 16
about 2-3 s, holding 1.0 and 1.5 MB at their peaks, on CPython 3.11, 2-CPU
x86-64); how far to walk is the caller's choice.  The one limit here is
of the format: lengths past ``MAX_LENGTH`` have heights that do not fit in
a byte, and are refused.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

__all__ = ["count_by_height", "count_motzkin2", "walk_paths"]

# a path's byte is its height + _ZERO, plus _NONNEGATIVE while it has not
# dipped below 0; heights within +-MAX_LENGTH keep that in 1..255
MAX_LENGTH = 63
_ZERO = MAX_LENGTH + 1
_NONNEGATIVE = 0x80
# the most paths of one length a slice walks at once: a longer level goes
# on in its four parts, none longer than the slice that made it
_SLICE = 1 << 17


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
# a part is tallied in rings of heights, nearest 0 first; the largest
# |height| of each ring
_RINGS = (2, 5, 9, MAX_LENGTH)
# for each rise, the bytes of the paths the first ring takes: those whose
# tally is closed or a height within it
_FIRST = {rise: bytes(b for b in range(256)
                      if table[b] == _CLOSED or abs(table[b] - _ZERO) <= _RINGS[0])
          for rise, table in _TALLY.items()}


def _extensions(frontier: bytes, previous: bytes, n: int) -> Iterator[tuple[bytes, int, range]]:
    """The paths of length n >= 1 in four parts, each as the paths it
    extends, the rise of its step and the heights its paths can reach: the
    U, D and H extensions of ``frontier``, the paths of length n - 1, and
    the H2 extensions of ``previous``, those of n - 2."""
    yield frontier, 1, range(2 - n, n + 1)
    yield frontier, -1, range(-n, n - 1)
    yield frontier, 0, range(1 - n, n)
    yield previous, 0, range(2 - n, n - 1)


@cache
def _rings(heights: range) -> tuple[tuple[tuple[int, ...], bytes], ...]:
    """The rings of ``heights``, a part's reach, nearest 0 first, up to the
    one that holds the part's farthest height: each ring's heights, and
    their bytes, which the rest of the part drops once they are counted.
    Kept per reach, four per length, so a slice does not make them again."""
    reach, inner, rings = max(-heights.start, heights.stop - 1), -1, []
    for outer in _RINGS:
        ring = tuple(h for h in heights if inner < abs(h) <= outer)
        rings.append((ring, bytes(h + _ZERO for h in ring)))
        if reach <= outer:
            break
        inner = outer
    return tuple(rings)


def _tally(extended: bytes, rise: int, heights: range, counts: dict[int, int]) -> tuple[int, int]:
    """Add the final heights of one part's paths, those ``extended``
    extends by a step of this rise, to ``counts``; return the number of its
    closed paths and of all the paths counted.

    The closed paths and the first ring are counted on the full tally,
    which is then released.  The rest of the part is tallied again without
    the paths already counted, and each further ring is counted on what
    the rings before it leave, so the outer heights, which few paths reach,
    are counted over ever shorter bytes.  Every count reads this part's
    own paths."""
    rest = extended.translate(_TALLY[rise])
    closed = tallied = rest.count(_CLOSED)  # at height 0, flag kept
    counts[0] += closed
    rings = _rings(heights)
    for k, (ring, ring_bytes) in enumerate(rings):
        if k == 1:
            del rest  # the full tally goes before the rest is made
            rest = extended.translate(_TALLY[rise], _FIRST[rise])
        elif k:
            rest = rest.translate(None, rings[k - 1][1])
        for height, here in zip(ring, map(rest.count, ring_bytes)):
            counts[height] += here
            tallied += here
    return closed, tallied


def walk_paths(max_n: int) -> tuple[list[dict[int, int]], list[int]]:
    """For each length n <= max_n, the number of paths per final height
    (heights no path reaches omitted) and of non-negative paths ending at 0."""
    if max_n < 0:
        raise ValueError(f"length must be >= 0, got {max_n}")
    if max_n > MAX_LENGTH:
        raise ValueError(
            f"length {max_n} is past {MAX_LENGTH}, the longest length whose heights fit in a byte"
        )
    by_height = [dict.fromkeys(range(-n, n + 1), 0) for n in range(max_n + 1)]
    closed = [0] * (max_n + 1)
    by_height[0][0] = closed[0] = 1  # the one path of length 0
    # each entry: a slice of the paths of length n - 1, the paths of length
    # n - 2 that go with it, and n
    stack = [(bytes([_CLOSED]), b"", 1)] if max_n else []
    while stack:
        frontier, previous, n = stack.pop()
        # each part is tallied over its own paths, one part at a time; only
        # a level still to be extended is made and joined, so the longest
        # never is
        kept = []
        for extended, rise, heights in _extensions(frontier, previous, n):
            closed_here, tallied = _tally(extended, rise, heights, by_height[n])
            closed[n] += closed_here
            if tallied != len(extended):
                raise ValueError(
                    f"length {n}: {len(extended) - tallied} of the {len(extended)} paths of one "
                    "part left over, at heights it cannot reach"
                )
            if n < max_n:
                kept.append(extended.translate(_STEP[rise]) if rise else extended)
        if sum(map(len, kept)) > _SLICE:
            # every longer path extends a path of one part or steps over
            # length n with H2 from frontier, so each part is walked on
            # apart, the U part with frontier and the rest with none
            stack.append((kept[0], frontier, n + 1))
            stack.extend((part, b"", n + 1) for part in kept[1:])
        elif kept:
            stack.append((b"".join(kept), frontier, n + 1))
        del kept  # the parts go before the next slice is walked
    return [{h: c for h, c in counts.items() if c} for counts in by_height], closed


def count_by_height(n: int) -> dict[int, int]:
    """Number of unconstrained paths of length n per final height.

    Heights that no path reaches are omitted from the result.
    """
    return walk_paths(n)[0][n]


def count_motzkin2(n: int) -> int:
    """Non-negative paths of length n ending at height 0 (steps U, D, H, H2)."""
    return walk_paths(n)[1][n]
