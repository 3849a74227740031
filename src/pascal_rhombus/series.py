"""Truncated formal power series over the integers.

A :class:`TruncatedSeries` keeps a fixed number of leading coefficients,
its *order*: a series of order N represents a power series modulo x^N.
Every series here counts paths, so its coefficients are Python ints and
every identity check is an exact comparison.  Three disciplines are
enforced throughout:

* binary operations demand operands of equal order, so a comparison can
  never silently involve coefficients one side does not actually know;
* exact division by x^k (:meth:`TruncatedSeries.shift_div`) shortens the
  result by k instead of padding it, because the top k coefficients of the
  quotient are unknowable from a truncation;
* every division by an int is exact: the halvings of :meth:`TruncatedSeries.sqrt`
  and ``s / k`` raise ``ValueError`` naming the first coefficient that is not
  an integer, so integrality is verified at every step.

Products, reciprocals and square roots are the textbook recurrences, each
new coefficient one dot product of ints; they are quadratic in the order,
of integers that grow with it.
:meth:`TruncatedSeries.compose` is the Paterson–Stockmeyer method: it
skips the outer terms whose power of the inner series vanishes mod x^order
and makes about 2 sqrt(T) products for the T terms left, where Horner
evaluation makes T.  C(F^2) at order N has T = N/2, so a closed-form column
of order N costs about 2 sqrt(N/2) products for its composition, and 0.5 s
at N = 400 (CPython 3.11, x86-64); the CLI refuses a column order above its
``--max-order``.

On top of the ring operations (add, multiply, reciprocal, square root,
composition) this module builds the named series the rest of the library
consumes: the Fibonacci and Catalan generating functions, the generating
function of level-step-2 Motzkin counts (``motzkin2_gf``), and the column
generating functions of the rhombus (``column_gfs`` for columns 0 .. j at
once, ``column_gf`` for one by a binary power of the step between columns),
each constructible by independent routes that the test suite compares
coefficient by coefficient.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd, isqrt
from operator import index, mul
from typing import Iterable, Union

__all__ = [
    "TruncatedSeries",
    "fibonacci_gf",
    "catalan_gf",
    "motzkin2_gf",
    "column_gf",
    "column_gfs",
    "MOTZKIN2_METHODS",
    "COLUMN_METHODS",
]

MOTZKIN2_METHODS = ("closed_form", "compositional", "functional_equation")
COLUMN_METHODS = ("closed_form", "functional_equation")


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients up to the last nonzero one."""
    return coeffs[:max((i + 1 for i, c in enumerate(coeffs) if c), default=0)]


def _exact_quotient(c: int, k: int, n: int, of: str) -> int:
    """c / k, which must be an int: coefficient n of the series named ``of``."""
    q, r = divmod(c, k)
    if r:
        g = gcd(c, k) if k > 0 else -gcd(c, k)
        raise ValueError(f"coefficient of x^{n} of the {of} is {c // g}/{k // g}, not an integer")
    return q


class TruncatedSeries:
    """Int coefficients c_0 .. c_{N-1} of a power series, N = ``order``.

    Immutable: ``coeffs`` is set once, and equal series hash alike.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least one coefficient")
        if not all(type(c) is int for c in coeffs):
            raise TypeError("coefficients must be ints")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a TruncatedSeries is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a TruncatedSeries is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, since attributes are frozen
        return TruncatedSeries, (self.coeffs,)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, values: Iterable[int], order: int | None = None) -> "TruncatedSeries":
        """Series with the given leading coefficients, zero-padded to ``order``.

        ``values`` is exact polynomial data, so discarding entries beyond
        ``order`` is reduction mod x^order, not a truncation mismatch.
        """
        coeffs = [index(v) for v in values]
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        del coeffs[order:]
        coeffs.extend([0] * (order - len(coeffs)))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def monomial(cls, k: int, order: int) -> "TruncatedSeries":
        """x^k, reduced mod x^order."""
        if k < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {k}")
        return cls.from_coeffs([0] * k + [1], order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; ``order`` if all are zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order

    def integer_coefficients(self) -> list[int]:
        """The coefficients as a new list."""
        return list(self.coeffs)

    def _require_same_order(self, other: "TruncatedSeries", op: str) -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch in {op}: {self.order} vs {other.order}; "
                "truncate() one operand explicitly"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other, "add")
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other, "sub")
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: Union["TruncatedSeries", int]) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            k = index(other)
            return TruncatedSeries(tuple(a * k for a in self.coeffs))
        self._require_same_order(other, "mul")
        n = self.order
        # a's trailing zeros are dropped, so a left factor such as x^k costs
        # O(order); b is reversed, so each coefficient is one dot product
        a = _trimmed(self.coeffs)
        b = other.coeffs[::-1]
        return TruncatedSeries(tuple(sum(map(mul, a[:k + 1], b[n - 1 - k:])) for k in range(n)))

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "TruncatedSeries":
        """Exact division by the int k; raises naming a coefficient k does not divide."""
        return TruncatedSeries(tuple(
            _exact_quotient(c, k, n, "quotient") for n, c in enumerate(self.coeffs)
        ))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers: use reciprocal() explicitly")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Series b with self * b = 1 mod x^order; needs c_0 = 1 or -1.

        A unit constant c = c_0 keeps every b_n an int: b_0 = c and
        b_n = -c sum_{i>=1} c_i b_(n-i).
        """
        c = self.coeffs[0]
        if c not in (1, -1):
            raise ValueError(f"reciprocal needs constant term 1 or -1, got {c}")
        a = _trimmed(self.coeffs)[1:]
        b = [c]
        for _ in range(1, self.order):
            b.append(-c * sum(map(mul, a, reversed(b[-len(a):]))))
        return TruncatedSeries(tuple(b))

    def sqrt(self) -> "TruncatedSeries":
        """The square root with constant term +1; needs c_0 = 1 exactly.

        Matching s*s = self term by term gives s_n = (c_n - sum_{0<i<n}
        s_i s_(n-i)) / 2, a halving that must be exact: the first that is
        not raises ``ValueError`` naming its power of x.
        """
        if self.coeffs[0] != 1:
            raise ValueError(f"sqrt needs constant term exactly 1, got {self.coeffs[0]}")
        a = self.coeffs
        s = [1]
        for n in range(1, self.order):
            s.append(_exact_quotient(a[n] - sum(map(mul, s[1:n], s[n - 1:0:-1])), 2, n,
                                     "square root"))
        return TruncatedSeries(tuple(s))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)) mod x^order, by the Paterson–Stockmeyer method.

        With T outer terms that can survive and k = isqrt(T), the baby steps
        inner^0 .. inner^k take k - 1 products.  Each block of k outer
        coefficients is then a sum of int multiples of inner^0 ..
        inner^(k-1), one int dot product per coefficient, and the blocks are
        combined by Horner in inner^k: about 2 sqrt(T) products in all,
        where Horner in inner takes T - 1.

        Requires valuation(inner) >= 1; substituting a series with a
        constant term would need infinitely many coefficients of self.
        """
        self._require_same_order(inner, "compose")
        if inner.coeffs[0]:
            raise ValueError("compose needs inner constant term 0")
        n = self.order
        # inner^t vanishes mod x^order once t * valuation(inner) >= order, so
        # the last outer term that can survive is top
        top = min(n - 1, (n - 1) // inner.valuation())
        k = isqrt(top + 1)
        powers = [TruncatedSeries.one(n), inner]
        while len(powers) <= k:
            powers.append(powers[-1] * inner)
        # coefficient t of inner^0 .. inner^(k-1)
        columns = list(zip(*(p.coeffs for p in powers[:k])))
        outer = self.coeffs[:top + 1]
        blocks = [
            TruncatedSeries(tuple(sum(map(mul, outer[s:s + k], col)) for col in columns))
            for s in range(0, top + 1, k)
        ]
        acc = blocks.pop()
        for block in reversed(blocks):
            acc = acc * powers[k] + block
        return acc

    def shift_div(self, k: int) -> "TruncatedSeries":
        """Exact division by x^k; the result has order reduced by k.

        Requires valuation >= k.  The order drops because the last k
        coefficients of the quotient would depend on coefficients beyond
        the truncation.
        """
        if k < 0:
            raise ValueError(f"shift_div needs k >= 0, got {k}")
        if k == 0:
            return self
        if k >= self.order:
            raise ValueError(f"shift_div by x^{k} leaves no coefficients at order {self.order}")
        if any(self.coeffs[:k]):
            raise ValueError(
                f"not divisible by x^{k}: valuation is {self.valuation()}"
            )
        return TruncatedSeries(self.coeffs[k:])

    def truncate(self, order: int) -> "TruncatedSeries":
        """Deliberately drop trailing coefficients down to ``order``."""
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[:order])


def _fib_denominator(order: int) -> TruncatedSeries:
    # 1 - x - x^2
    return TruncatedSeries.from_coeffs([1, -1, -1], order)


def fibonacci_gf(order: int) -> TruncatedSeries:
    """x / (1 - x - x^2): coefficients 0, 1, 1, 2, 3, 5, 8, ..."""
    return TruncatedSeries.monomial(1, order) * _fib_denominator(order).reciprocal()


def catalan_gf(order: int) -> TruncatedSeries:
    """(1 - sqrt(1 - 4x)) / (2x): coefficients 1, 1, 2, 5, 14, 42, ..."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    root = TruncatedSeries.from_coeffs([1, -4], order + 1).sqrt()
    return (TruncatedSeries.one(order + 1) - root).shift_div(1) / 2


def motzkin2_gf(order: int, method: str = "closed_form") -> TruncatedSeries:
    """Generating function B of Motzkin paths extended with the long level
    step (2,0): coefficients 1, 1, 3, 6, 16, 40, 109, ...

    Three independent routes are implemented and must agree:

    * ``closed_form``: (1 - x - x^2 - sqrt(1 - 2x - 5x^2 + 2x^3 + x^4)) / (2x^2),
    * ``compositional``: (F/x) * C(F^2) with F, C the Fibonacci and Catalan
      generating functions,
    * ``functional_equation``: the coefficient recurrence extracted from
      B = 1 + (x + x^2) B + x^2 B^2 (first-return decomposition of a path).
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if method == "closed_form":
        radicand = TruncatedSeries.from_coeffs([1, -2, -5, 2, 1], order + 2)
        numer = TruncatedSeries.from_coeffs([1, -1, -1], order + 2) - radicand.sqrt()
        return numer.shift_div(2) / 2
    if method == "compositional":
        f = fibonacci_gf(order + 1)
        c_of_f2 = catalan_gf(order + 1).compose(f * f)
        return f.shift_div(1) * c_of_f2.truncate(order)
    if method == "functional_equation":
        b = [1]
        for n in range(1, order):
            value = b[n - 1]
            if n >= 2:
                value += b[n - 2]
                value += sum(b[p] * b[n - 2 - p] for p in range(n - 1))
            b.append(value)
        return TruncatedSeries.from_coeffs(b, order)
    raise ValueError(f"unknown method {method!r}; choose from {MOTZKIN2_METHODS}")


def _column_base(order: int, method: str) -> tuple[TruncatedSeries, TruncatedSeries]:
    """L_0 and the step h with L_(j+1) = h L_j, both of ``order`` (the routes
    are described at :func:`column_gfs`)."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if method == "closed_form":
        # L_0 = F / (x (1 - 2 F h)) needs order + 1 coefficients of F and h
        f = fibonacci_gf(order + 1)
        h = f * catalan_gf(order + 1).compose(f * f)
        denom = TruncatedSeries.one(order + 1) - f * h * 2
        return (f * denom.reciprocal()).shift_div(1), h.truncate(order)
    if method == "functional_equation":
        b = motzkin2_gf(order, "functional_equation")
        denom = _fib_denominator(order) - TruncatedSeries.monomial(2, order) * b * 2
        return denom.reciprocal(), TruncatedSeries.monomial(1, order) * b
    raise ValueError(f"unknown method {method!r}; choose from {COLUMN_METHODS}")


def column_gfs(max_j: int, order: int, method: str = "closed_form") -> list[TruncatedSeries]:
    """Generating functions L_0 .. L_max_j of columns 0 .. max_j of the rhombus.

    Both routes must agree, and every coefficient is a non-negative
    integer.  Each route builds L_0 once, then makes one product per
    further column:

    * ``closed_form``: F^(j+1) C(F^2)^j / (x (1 - 2 F^2 C(F^2))), so
      L_(j+1) = h L_j with h = F C(F^2),
    * ``functional_equation``: x^j B^j / (1 - x - x^2 - 2 x^2 B), the
      linear equation satisfied by the column generating function, so
      L_(j+1) = x B L_j.
    """
    if max_j < 0:
        raise ValueError(f"column index must be >= 0, got {max_j}")
    column, step = _column_base(order, method)
    return list(accumulate(repeat(step, max_j), mul, initial=column))


def column_gf(j: int, order: int, method: str = "closed_form") -> TruncatedSeries:
    """Generating function L_j = h^j L_0 of column j >= 0, from the L_0 and h of
    :func:`column_gfs` by one binary power: about 2 log2(j) products, not j.

    L_j has valuation j, so from j = order on it is the zero series."""
    if j < 0:
        raise ValueError(f"column index must be >= 0, got {j}")
    column, step = _column_base(order, method)
    # the power goes on the left, whose trailing zeros __mul__ drops: j = 0 costs O(order)
    return step ** min(j, order) * column
