"""Direct evaluation of the closed formulas for rhombus entries.

Three families live here, all exact and all redundant on purpose (the
module exists to cross-verify, so none of the routes is ever collapsed
into another):

* the triple-binomial sum for the entry at (i, j),
* convolved Fibonacci numbers, i.e. coefficients of (1 - x - x^2)^(-r),
  computed three ways (series power, binomial closed form, and the sum
  over weak compositions of products of Fibonacci numbers),
* the entry formula combining binomials with convolved Fibonacci numbers.

Their binomials are `math.comb` in its support, stepped by exact term ratios
in the triple sum; :func:`binomial` adds C(n, k) = 0 for k < 0 or k > n.

Both entry formulas have one shape: entry (i, j) = Σ_m C(j + 2m, m) V_i(m),
a weight that depends on j alone times a value that depends on the row
alone (an inner sum of the triple sum, or a convolved Fibonacci number on
antidiagonal i + 1), and a call reads one parity of its row's values.  So
each route caches its weights in blocks by j and its values as tails by
(row, parity), each its own caches under a fixed bound, and a warm call is
one lookup and one dot product of the two.  The convolved values come from
prefixes of A_r = (1 - x - x^2)^(-r) built upward, A_r = A_(r-1) A_1.

Entries at negative j are evaluated at |j|; the recurrence is left-right
symmetric and the equality of both halves is verified numerically
elsewhere rather than assumed here.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import chain, repeat
from math import comb
from operator import mul
from threading import Lock

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

    The zero convention is the public contract, for callers whose sums run
    past the support; the library's own sums stay inside it.  Negative n is
    a domain error, not a convention.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    # comb itself returns 0 for k > n but raises for k < 0
    return comb(n, k) if k >= 0 else 0


# the triple sum's row tails (S_i(top), S_i(top - 2), ..., S_i(top mod 2)),
# keyed by (i, parity of k) and grown toward larger k only as far as a call
# reads.  A grown tail is replaced whole and moved last (assigning to a kept
# key would leave it in place), and the least recently grown go first once
# more than _INNER_SUMS_KEPT sums are held; the lock keeps that count exact
_INNER_SUMS_KEPT = 1 << 14
_inner_sum_tails: OrderedDict = OrderedDict()
_inner_sums_held = 0
_inner_sums_lock = Lock()


def _inner_sum(i: int, k: int) -> int:
    term = total = comb(i, k)
    for v, u in enumerate(range(k, 1, -2), 1):
        term = term * (u * (u - 1)) // ((i - v + 1) * v)
        total += term
    return total


def _inner_sum_tail(i: int, top: int) -> tuple[int, ...]:
    global _inner_sums_held
    key = (i, top % 2)
    cached = _inner_sum_tails.get(key, ())
    missing = top // 2 + 1 - len(cached)
    if missing <= 0:
        return cached[-missing:]
    cached = tuple(map(_inner_sum, repeat(i), range(top, top - 2 * missing, -2))) + cached
    with _inner_sums_lock:
        _inner_sums_held += len(cached) - len(_inner_sum_tails.pop(key, ()))
        _inner_sum_tails[key] = cached
        while _inner_sums_held > _INNER_SUMS_KEPT:
            _inner_sums_held -= len(_inner_sum_tails.popitem(last=False)[1])
    return cached


# the binomial weights C(j + 2m, m) of both routes are cached in blocks of
# this many consecutive m, each route its own
_WEIGHTS_PER_BLOCK = 64
_TRIPLE_WEIGHT_BLOCKS_KEPT = 256


@lru_cache(maxsize=_TRIPLE_WEIGHT_BLOCKS_KEPT)
def _triple_weights(j: int, block: int) -> tuple[int, ...]:
    m = block * _WEIGHTS_PER_BLOCK
    outer = comb(j + 2 * m, m)
    weights = [outer]
    for m in range(m, m + _WEIGHTS_PER_BLOCK - 1):
        a = j + 2 * m
        outer = outer * ((a + 1) * (a + 2)) // ((m + 1) * (j + m + 1))
        weights.append(outer)
    return tuple(weights)


def entry_triple_sum(i: int, j: int) -> int:
    """Entry (i, j) as a double sum of three binomial factors.

    The sum over m of C(a, m) S_i(k), a = j + 2m, k = i - |j| - 2m >= 0, with
    S_i(k) over ceil(k/2) <= l <= k: the terms left out are zero.  The inner
    terms C(l + i - k, l) C(l, k - l) start at C(i, k), l = k, and step down
    in l by their ratio u (u - 1) / ((i - v + 1) v), v = k - l + 1, u = 2l - k;
    C(a, m) steps by (a + 1)(a + 2) / ((m + 1)(j + m + 1)).  Each `//` is
    exact, as it yields the next term, an integer.  A warm call is one lookup
    of row i's tail of S_i(k), one parity of k, and one dot product with the
    cached weights C(a, m).

    Each S_i(k) is summed once from row i's binomials, when a call first
    reads it; the tails hold at most ``_INNER_SUMS_KEPT`` = 2^14 sums, under
    1 KB each at i = 4500, this route's reach, so at most about 16 MB.  A
    least-recently-used cache keeps the last ``_TRIPLE_WEIGHT_BLOCKS_KEPT`` =
    256 blocks of 64 weights C(a, m), one j and 64 consecutive m each, filled
    whole from one `comb` by the ratio above: under 42 KB a block for any
    entry up to i = 4500, so at most about 11 MB.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    blocks = range((i - j) // (2 * _WEIGHTS_PER_BLOCK) + 1)
    weights = chain.from_iterable(map(_triple_weights, repeat(j), blocks))
    return sum(map(mul, weights, _inner_sum_tail(i, i - j)))


def convolved_fib_series(r: int, count: int) -> list[int]:
    """First ``count`` coefficients of (1 - x - x^2)^(-r).

    r = 1 gives the classical Fibonacci numbers 1, 1, 2, 3, 5, ...; larger
    r convolves that sequence with itself r times.  Computed through the
    series reciprocal and power over the integers.
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


# the convolved route's cache of the triangle a_r(n), coefficient n of
# A_r = (1 - x - x^2)^(-r): each depth r's prefix (A_1 one reciprocal, each
# deeper A_(r-1) A_1) and under _TAILS its antidiagonals' tails, copied from
# the prefixes and so dropped with them.  Values are immutable tuples,
# replaced whole, so a racing rebuild is wasted work, not corruption
_conv_prefix_cache: dict = {}
_TAILS = "antidiagonal tails"
_ANTIDIAGONALS_KEPT = 512


def _convolved_prefix(r: int, count: int) -> tuple[int, ...]:
    cached = _conv_prefix_cache.get(r, ())
    if len(cached) < count:
        # a rebuild doubles, so an ascending sweep rebuilds each r about log2 times
        n = max(count, 2 * len(cached) or 32)
        base = _conv_prefix_cache.get(1, ())
        if len(base) < n:
            base = _conv_prefix_cache[1] = TruncatedSeries.from_coeffs([1, -1, -1], n).reciprocal().coeffs
        # from the deepest depth below r kept this long, A_d = A_(d-1) A_1 up to r
        low, cached = next(((d, p) for d in range(r - 1, 1, -1)
                            if len(p := _conv_prefix_cache.get(d, ())) >= n), (1, base))
        step = TruncatedSeries(base[:n])
        for d in range(low + 1, r + 1):
            cached = _conv_prefix_cache[d] = (TruncatedSeries(cached[:n]) * step).coeffs
    return cached


def _antidiagonal(s: int, low: int) -> tuple[int, ...]:
    # a_r(n) for r = low, low + 2, ... up to s, n = s - r: one parity of
    # antidiagonal s, from depth low on.  Tails are kept by (s, parity of r),
    # the _ANTIDIAGONALS_KEPT last begun, and grow only as far down as a
    # call reads
    tails = _conv_prefix_cache.get(_TAILS)
    if tails is None:
        tails = _conv_prefix_cache.setdefault(_TAILS, OrderedDict())
    key = (s, low % 2)
    cached = tails.get(key, ())
    missing = (s - low) // 2 + 1 - len(cached)
    if missing <= 0:
        return cached[-missing:]
    fresh = [_convolved_prefix(r, s - r + 1)[s - r] for r in range(low, low + 2 * missing, 2)]
    cached = tails[key] = tuple(fresh) + cached
    while len(tails) > _ANTIDIAGONALS_KEPT:
        tails.popitem(last=False)
    return cached


_CONVOLVED_WEIGHT_BLOCKS_KEPT = 512


@lru_cache(maxsize=_CONVOLVED_WEIGHT_BLOCKS_KEPT)
def _convolved_weights(j: int, block: int) -> tuple[int, ...]:
    start = block * _WEIGHTS_PER_BLOCK
    return tuple(binomial(j + 2 * m, m) for m in range(start, start + _WEIGHTS_PER_BLOCK))


def entry_convolved(i: int, j: int) -> int:
    """Entry (i, j) as a binomial-weighted sum of convolved Fibonacci numbers.

    The sum over m of C(j + 2m, m) a_r(n), r = |j| + 2m + 1, n = i - |j| - 2m,
    where a_r(n) is coefficient n of (1 - x - x^2)^(-r) (OEIS A037027, read
    by columns).  Every a_r(n) of row i lies on the antidiagonal r + n =
    i + 1, and those of one call on one parity of r, so a warm call is one
    dot product of two cached vectors: the weights C(j + 2m, m) and the
    antidiagonal's tail from r = |j| + 1.  The tail is read from cached
    prefixes of A_r, only where a call needs it; a depth is built up from
    the deepest kept below it, one series product A_d = A_(d-1) A_1 a depth.

    The last ``_ANTIDIAGONALS_KEPT`` = 512 tails begun are kept: at most
    276 values, under 29 KB, at i = 550, this route's reach, so at most
    about 15 MB.  A least-recently-used cache keeps the last
    ``_CONVOLVED_WEIGHT_BLOCKS_KEPT`` = 512 blocks of 64 weights, one j and
    64 consecutive m each: under 7 KB a block up to i = 550, so under 4 MB.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    blocks = range((i - j) // (2 * _WEIGHTS_PER_BLOCK) + 1)
    weights = chain.from_iterable(map(_convolved_weights, repeat(j), blocks))
    return sum(map(mul, weights, _antidiagonal(i + 1, j + 1)))
