"""Exhaustive lattice-path oracle.

Paths use four steps: U = (1, 1), D = (1, -1), H = (1, 0) and the long
level step H2 = (2, 0).  The *length* of a path is its total x-extent (so
H2 contributes 2), its *height* is the final y-coordinate, and a path is
*non-negative* when no prefix dips below the x-axis.

Everything here is deliberately brute force: one walker recurses over the
four steps, visits every path once (no memo, no path objects) and tallies
it at its final height; forbidding D at height 0 keeps it non-negative.
This is the ground truth the fast recurrence table and the generating
functions are checked against, so it is written to be obviously correct
rather than fast, and refuses lengths above a configurable cap (default
14) where full enumeration stops being a desk-scale computation.
"""

from __future__ import annotations

__all__ = ["DEFAULT_CAP", "count_by_height", "count_motzkin2"]

DEFAULT_CAP = 14


def _walk(n: int, cap: int, nonnegative: bool) -> dict[int, int]:
    """Number of paths of length n per final height, every path visited."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n > cap:
        raise ValueError(
            f"length {n} exceeds the enumeration cap {cap}; "
            "full enumeration grows exponentially, raise the cap knowingly"
        )
    floor = 0 if nonnegative else -n
    counts = [0] * (2 * n + 1)

    def walk(remaining: int, height: int) -> None:
        if remaining == 0:
            counts[height + n] += 1
            return
        walk(remaining - 1, height + 1)
        if height > floor:
            walk(remaining - 1, height - 1)
        walk(remaining - 1, height)
        if remaining >= 2:
            walk(remaining - 2, height)

    walk(n, 0)
    return {h - n: c for h, c in enumerate(counts) if c}


def count_by_height(n: int, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """Number of unconstrained paths of length n per final height.

    Heights that no path reaches are omitted from the result.
    """
    return _walk(n, cap, nonnegative=False)


def count_motzkin2(n: int, cap: int = DEFAULT_CAP) -> int:
    """Non-negative paths of length n ending at height 0 (steps U, D, H, H2)."""
    return _walk(n, cap, nonnegative=True).get(0, 0)
