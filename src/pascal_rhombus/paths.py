"""Exhaustive lattice-path oracle.

Paths use four steps: U = (1, 1), D = (1, -1), H = (1, 0) and the long
level step H2 = (2, 0).  The *length* of a path is its total x-extent (so
H2 contributes 2), its *height* is the final y-coordinate, and a path is
*non-negative* when no prefix dips below the x-axis.

Everything here is deliberately brute force: one walker visits every path
of length <= max_n exactly once, with no memo and no path objects.  A call
for a path shorter than max_n tallies each of its one-step extensions (U, D,
H, and H2 where it fits) with one ``+= 1`` at its length and final height,
and once more if it is a non-negative path back at height 0; it then
recurses into the extensions still shorter than max_n.  So one walk counts
every length, and no count is ever added to another.  This is the ground
truth the fast recurrence table and the generating functions are checked
against, so it is written to be obviously correct rather than fast, and
refuses lengths above a configurable cap (default 14) where full
enumeration stops being a desk-scale computation.
"""

from __future__ import annotations

__all__ = ["DEFAULT_CAP", "count_by_height", "count_motzkin2", "walk_paths"]

DEFAULT_CAP = 14


def walk_paths(max_n: int, cap: int = DEFAULT_CAP) -> tuple[list[dict[int, int]], list[int]]:
    """For each length n <= max_n, the number of paths per final height
    (heights no path reaches omitted) and of non-negative paths ending at 0."""
    if max_n < 0:
        raise ValueError(f"length must be >= 0, got {max_n}")
    if max_n > cap:
        raise ValueError(
            f"length {max_n} exceeds the enumeration cap {cap}; "
            "full enumeration grows exponentially, raise the cap knowingly"
        )
    # paths of length n at height h are tallied at by_height[n][h + n]
    by_height = [[0] * (2 * n + 1) for n in range(max_n + 1)]
    closed = [0] * (max_n + 1)
    by_height[0][0] = closed[0] = 1  # the empty path

    def walk(n: int, height: int, nonnegative: bool) -> None:
        tallies, at = by_height[n + 1], height + n + 1
        tallies[at + 1] += 1                # U
        tallies[at - 1] += 1                # D
        tallies[at] += 1                    # H
        long_fits = n + 2 <= max_n
        if long_fits:
            by_height[n + 2][at + 1] += 1   # H2
        # D from height 1, or H from height 0, closes a non-negative path;
        # so does H2 from height 0
        if nonnegative and height <= 1:
            closed[n + 1] += 1
            if long_fits and height == 0:
                closed[n + 2] += 1
        if n + 1 < max_n:
            walk(n + 1, height + 1, nonnegative)
            walk(n + 1, height - 1, nonnegative and height > 0)
            walk(n + 1, height, nonnegative)
            if n + 2 < max_n:
                walk(n + 2, height, nonnegative)

    if max_n > 0:
        walk(0, 0, True)
    return [{h - n: c for h, c in enumerate(row) if c} for n, row in enumerate(by_height)], closed


def count_by_height(n: int, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """Number of unconstrained paths of length n per final height.

    Heights that no path reaches are omitted from the result.
    """
    return walk_paths(n, cap)[0][n]


def count_motzkin2(n: int, cap: int = DEFAULT_CAP) -> int:
    """Non-negative paths of length n ending at height 0 (steps U, D, H, H2)."""
    return walk_paths(n, cap)[1][n]
