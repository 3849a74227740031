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
each route keeps, in stores of its own, its weights as one tuple per j and
its values as tails by (row, parity); a warm call is two lookups and one
dot product.  A store's tuples grow only as far as a call reads, each
replaced whole and moved last, and the least recently grown go first once
it holds more values than its bound; a lock keeps that count exact.  The
convolved values come from prefixes of A_r = (1 - x - x^2)^(-r) built
upward, A_r = A_(r-1) A_1.

Entries at negative j are evaluated at |j|; the recurrence is left-right
symmetric and the equality of both halves is verified numerically
elsewhere rather than assumed here.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
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


class _TripleStore(OrderedDict):
    # the triple sum's stores, each holding at most `kept` values
    def __init__(self, kept: int) -> None:
        super().__init__()
        self.kept, self.held, self.lock = kept, 0, Lock()

    def grown(self, key, values: tuple) -> tuple:
        with self.lock:
            # popped first, as assigning to a kept key would leave it in place
            self.held += len(values) - len(self.pop(key, ()))
            self[key] = values
            while self.held > self.kept:
                self.held -= len(self.popitem(last=False)[1])
        return values


# the weights C(j + 2m, m), m = 0, 1, ..., by j (a lone C(j, 0) = 1 is not
# stored); the tails (S_i(top), ..., S_i(top mod 2)) by (i, parity of k)
_triple_weight_rows = _TripleStore(1 << 15)
_inner_sum_tails = _TripleStore(1 << 14)


def _triple_weight_row(j: int, count: int) -> tuple[int, ...]:
    weights = _triple_weight_rows.get(j, (1,))
    if len(weights) >= count:
        return weights
    weights = list(weights)
    for m in range(len(weights) - 1, count - 1):
        a = j + 2 * m
        weights.append(weights[-1] * ((a + 1) * (a + 2)) // ((m + 1) * (j + m + 1)))
    return _triple_weight_rows.grown(j, tuple(weights))


def _inner_sum(i: int, k: int) -> int:
    term = total = comb(i, k)
    for v, u in enumerate(range(k, 1, -2), 1):
        term = term * (u * (u - 1)) // ((i - v + 1) * v)
        total += term
    return total


def _inner_sum_tail(i: int, top: int) -> tuple[int, ...]:
    key = (i, top % 2)
    cached = _inner_sum_tails.get(key, ())
    missing = top // 2 + 1 - len(cached)
    if missing <= 0:
        return cached[-missing:]
    fresh = tuple(map(_inner_sum, repeat(i), range(top, top - 2 * missing, -2)))
    return _inner_sum_tails.grown(key, fresh + cached)


def entry_triple_sum(i: int, j: int) -> int:
    """Entry (i, j) as a double sum of three binomial factors.

    The sum over m of C(a, m) S_i(k), a = j + 2m, k = i - |j| - 2m >= 0, with
    S_i(k) over ceil(k/2) <= l <= k: the terms left out are zero.  The inner
    terms C(l + i - k, l) C(l, k - l) start at C(i, k), l = k, and step down
    in l by their ratio u (u - 1) / ((i - v + 1) v), v = k - l + 1, u = 2l - k;
    C(a, m) steps by (a + 1)(a + 2) / ((m + 1)(j + m + 1)).  Each `//` is
    exact, as it yields the next term, an integer.  A warm call is one dot
    product of column j's weights C(a, m) and row i's tail of S_i(k).

    A weight is continued by its ratio from the last one held for its j, and
    S_i(k) summed from row i's binomials, when a call first reads it.  The
    stores keep at most 2^15 weights and 2^14 sums, under 0.7 and 0.8 KB
    each at i = 4500, this route's reach, so at most about 21 and 13 MB.  A
    cold sweep of every entry up to i = 280 holds 19,881 weights and each
    row's tails at once, so it computes none of them twice.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    return sum(map(mul, _triple_weight_row(j, (i - j) // 2 + 1), _inner_sum_tail(i, i - j)))


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


class _ConvolvedStore(OrderedDict):
    # the convolved route's stores, each holding at most `kept` values
    def __init__(self, kept: int) -> None:
        super().__init__()
        self.kept, self.held, self.lock = kept, 0, Lock()

    def grown(self, key, values: tuple) -> tuple:
        with self.lock:
            self.held += len(values) - len(self.pop(key, ()))
            self[key] = values
            while self.held > self.kept:
                self.held -= len(self.popitem(last=False)[1])
        return values


# the weights C(j + 2m, m), m = 0, 1, ..., by j; a_r(n), coefficient n of A_r,
# as each depth r's prefix, and its antidiagonals' tails by (r + n, parity of r)
_convolved_weight_rows = _ConvolvedStore(1 << 15)
_conv_prefix_cache = _ConvolvedStore(1 << 18)
_antidiagonal_tails = _ConvolvedStore(1 << 14)


def _convolved_weight_row(j: int, count: int) -> tuple[int, ...]:
    held = _convolved_weight_rows.get(j, ())
    if len(held) >= count:
        return held
    fresh = tuple(binomial(j + 2 * m, m) for m in range(len(held), count))
    return _convolved_weight_rows.grown(j, held + fresh)


def _convolved_prefix(r: int, count: int) -> tuple[int, ...]:
    cached = _conv_prefix_cache.get(r, ())
    if len(cached) < count:
        # doubled, so an ascending sweep builds each r about log2 times; one more
        # than asked, as the depths built on the way up serve the other parity
        n = max(count + 1, 2 * len(cached) or 32)
        base = _conv_prefix_cache.get(1, ())
        if len(base) < n:
            base = _conv_prefix_cache.grown(
                1, TruncatedSeries.from_coeffs([1, -1, -1], n).reciprocal().coeffs)
        # from the deepest depth below r kept this long, A_d = A_(d-1) A_1 up to r
        low, cached = next(((d, p) for d in range(r - 1, 1, -1)
                            if len(p := _conv_prefix_cache.get(d, ())) >= n), (1, base))
        step = TruncatedSeries(base[:n])
        for d in range(low + 1, r + 1):
            cached = _conv_prefix_cache.grown(d, (TruncatedSeries(cached[:n]) * step).coeffs)
    return cached


def _antidiagonal(s: int, low: int) -> tuple[int, ...]:
    # a_r(n) for r = low, low + 2, ... up to s, n = s - r: one parity of
    # antidiagonal s, from depth low on, grown only as far down as a call reads
    key = (s, low % 2)
    cached = _antidiagonal_tails.get(key, ())
    missing = (s - low) // 2 + 1 - len(cached)
    if missing <= 0:
        return cached[-missing:]
    fresh = tuple(_convolved_prefix(r, s - r + 1)[s - r] for r in range(low, low + 2 * missing, 2))
    return _antidiagonal_tails.grown(key, fresh + cached)


def entry_convolved(i: int, j: int) -> int:
    """Entry (i, j) as a binomial-weighted sum of convolved Fibonacci numbers.

    The sum over m of C(j + 2m, m) a_r(n), r = |j| + 2m + 1, n = i - |j| - 2m,
    where a_r(n) is coefficient n of (1 - x - x^2)^(-r) (OEIS A037027, read
    by columns).  Every a_r(n) of row i lies on the antidiagonal r + n =
    i + 1, and those of one call on one parity of r, so a warm call is one
    dot product of column j's weights C(j + 2m, m) and the antidiagonal's
    tail from r = |j| + 1, read from prefixes of A_r where a call needs it;
    a depth is built from the deepest kept below it, A_d = A_(d-1) A_1.

    The stores keep at most 2^15 weights, 2^14 tail values and 2^18 prefix
    coefficients, each under 0.12 KB at i = 550, this route's reach, so at
    most about 4, 2 and 32 MB.  A cold entry at i = 550 holds 152,832
    coefficients; a cold sweep of every entry up to i = 280 holds 19,881
    weights, 56,832 coefficients and each row's tails, so it computes no
    weight and no tail value twice.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    j = abs(j)
    if j > i:
        return 0
    return sum(map(mul, _convolved_weight_row(j, (i - j) // 2 + 1), _antidiagonal(i + 1, j + 1)))
