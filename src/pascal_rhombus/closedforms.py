"""Direct evaluation of the closed formulas for rhombus entries.

Three families live here, all exact and all redundant on purpose (the
module exists to cross-verify, so none of the routes is ever collapsed
into another):

* the triple-binomial sum for the entry at (i, j),
* convolved Fibonacci numbers, i.e. coefficients of (1 - x - x^2)^(-r),
  computed three ways (series power, binomial closed form, and the sum
  over weak compositions of products of Fibonacci numbers),
* the entry formula combining binomials with convolved Fibonacci numbers.

Their binomial factors come from one kernel, :func:`binomial`: `math.comb`
with the out-of-range-zero convention, C(n, k) = 0 for k < 0 or k > n.

Entries at negative j are evaluated at |j|; the recurrence is left-right
symmetric and the equality of both halves is verified numerically
elsewhere rather than assumed here.
"""

from __future__ import annotations

from math import comb

from .series import TruncatedSeries

__all__ = [
    "binomial",
    "entry_triple_sum",
    "entry_convolved",
    "convolved_fib_series",
    "convolved_fib_gould",
    "convolved_fib_product",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The zero convention is load-bearing: the closed-form sums in this
    library run their indices past the support of their terms and rely on
    the out-of-range factors vanishing.  Negative n is a domain error,
    not a convention.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    # comb itself returns 0 for k > n but raises for k < 0
    return comb(n, k) if k >= 0 else 0


def entry_triple_sum(i: int, j: int) -> int:
    """Entry (i, j) as a double sum of three binomial factors.

    The outer index stops at floor((i - |j|)/2); beyond that every term
    vanishes (the tests check this against the loose bound m <= i).
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    total = 0
    for m in range((i - j) // 2 + 1):
        lead = binomial(2 * m + j, m)
        rest = 0
        for l in range(i - j - 2 * m + 1):
            rest += binomial(l + j + 2 * m, l) * binomial(l, i - j - 2 * m - l)
        total += lead * rest
    return total


def convolved_fib_series(r: int, count: int) -> list[int]:
    """First ``count`` coefficients of (1 - x - x^2)^(-r).

    r = 1 gives the classical Fibonacci numbers 1, 1, 2, 3, 5, ...; larger
    r convolves that sequence with itself r times.  Computed through the
    exact series reciprocal and power; integrality of the result is a
    consequence, and is enforced.
    """
    if r < 1:
        raise ValueError(f"convolution depth r must be >= 1, got {r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = TruncatedSeries.from_coeffs([1, -1, -1], count).reciprocal()
    return (base ** r).integer_coefficients()


def convolved_fib_gould(j: int, r: int) -> int:
    """Coefficient j of (1 - x - x^2)^(-r) as a sum of binomial products."""
    if j < 0:
        raise ValueError(f"index must be >= 0, got {j}")
    if r < 1:
        raise ValueError(f"convolution depth r must be >= 1, got {r}")
    return sum(
        binomial(j + r - l - 1, j - l) * binomial(j - l, l) for l in range(j // 2 + 1)
    )


def _fibonacci_prefix(count: int) -> list[int]:
    # classical Fibonacci, F_1 = F_2 = 1, indexed so prefix[m] = F_{m+1}
    fib = [1, 1]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib[:count]


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def convolved_fib_product(j: int, r: int) -> int:
    """Coefficient j of (1 - x - x^2)^(-r) summed over weak compositions.

    Enumerates every way of writing j as an ordered sum of r non-negative
    parts and multiplies the corresponding Fibonacci numbers.  Exponential
    in r, intended as the desk-scale oracle for the other two forms.
    """
    if j < 0:
        raise ValueError(f"index must be >= 0, got {j}")
    if r < 1:
        raise ValueError(f"convolution depth r must be >= 1, got {r}")
    fib = _fibonacci_prefix(j + 1)
    total = 0
    for parts in _weak_compositions(j, r):
        product = 1
        for p in parts:
            product *= fib[p]
        total += product
    return total


# convolved-Fibonacci prefixes reused across entry_convolved calls; values
# are immutable tuples, so a racing rebuild is wasted work, not corruption
_conv_prefix_cache: dict[int, tuple[int, ...]] = {}


def _convolved_prefix(r: int, count: int) -> tuple[int, ...]:
    cached = _conv_prefix_cache.get(r)
    if cached is None or len(cached) < count:
        cached = tuple(convolved_fib_series(r, max(count, 32)))
        _conv_prefix_cache[r] = cached
    return cached


def entry_convolved(i: int, j: int) -> int:
    """Entry (i, j) as a binomial-weighted sum of convolved Fibonacci numbers."""
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    total = 0
    for m in range((i - j) // 2 + 1):
        prefix = _convolved_prefix(j + 2 * m + 1, i - j - 2 * m + 1)
        total += binomial(2 * m + j, m) * prefix[i - j - 2 * m]
    return total
