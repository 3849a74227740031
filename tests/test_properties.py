"""Property-based tests on top of the fixed sweeps, derandomised so every run
draws the same examples and writes no example database."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascal_rhombus import TruncatedSeries, binomial, build_table, entry_convolved, entry_triple_sum

# on a failure hypothesis imports libcst to suggest a patch, and where libcst
# runs on mypy_extensions that import warns; as an error it would turn the
# test's failure report into a pytest INTERNALERROR
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

exact = settings(derandomize=True, database=None, deadline=None, max_examples=30)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=5)


@st.composite
def entries_past_the_sweep(draw):
    # check and the acceptance tests sweep i <= 40
    i = draw(st.integers(41, 60))
    return i, draw(st.integers(-i - 2, i + 2))


@st.composite
def rows_and_indices(draw):
    n = draw(st.integers(1, 2000))
    return n, draw(st.integers(-2, n + 2) | st.integers())


@st.composite
def series(draw, order, constant=None, values=small_rationals):
    coeffs = draw(st.lists(values, min_size=order, max_size=order))
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return TruncatedSeries.from_coeffs(coeffs)


def same_order_pair(values):
    return st.integers(1, 12).flatmap(lambda order: st.tuples(
        series(order, values=values), series(order, values=values)
    ))


@st.composite
def inner_of_valuation(draw, order, valuation):
    # zero below x^valuation, nonzero at it if order reaches that far
    rest = max(order - valuation, 0)
    coeffs = [0] * valuation + draw(st.lists(small_rationals, min_size=rest, max_size=rest))
    if valuation < order and not coeffs[valuation]:
        coeffs[valuation] = Fraction(1)
    return TruncatedSeries.from_coeffs(coeffs, order)


def plain_convolution(a, b):
    n = len(a)
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def untrimmed_horner(outer, inner):
    one = TruncatedSeries.one(outer.order)
    acc = outer.coeffs[-1] * one
    for c in reversed(outer.coeffs[:-1]):
        acc = acc * inner + c * one
    return acc


@settings(exact, max_examples=20)
@given(entries_past_the_sweep())
def test_routes_agree_past_the_sweep(point):
    i, j = point
    assert build_table(i).entry(i, j) == entry_triple_sum(i, j) == entry_convolved(i, j)


@settings(exact, max_examples=200)
@given(rows_and_indices())
def test_binomial_pascal_rule_and_symmetry(point):
    n, k = point
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    assert binomial(n, k) == binomial(n, n - k)


@exact
@given(st.integers(1, 8).flatmap(series))
def test_series_times_reciprocal_is_one(s):
    if s.coeffs[0]:
        assert s * s.reciprocal() == TruncatedSeries.one(s.order)


@exact
@given(st.integers(1, 8).flatmap(lambda order: series(order, constant=1)))
def test_sqrt_squares_back(s):
    assert s.sqrt() ** 2 == s


@exact
@given(st.integers(2, 6).flatmap(lambda order: st.tuples(series(order), series(order, constant=0))))
def test_compose_is_associative_with_x_plus_x2(pair):
    s, t = pair
    p = TruncatedSeries.from_coeffs([0, 1, 1], s.order)
    assert s.compose(t).compose(p) == s.compose(t.compose(p))


@exact
@given(same_order_pair(st.integers(-2, 2) | st.integers(-10**30, 10**30))
       | same_order_pair(small_rationals))
def test_mul_is_the_plain_convolution(pair):
    # integral operands take the int path of __mul__, any other the Fraction one
    a, b = pair
    product = a * b
    assert list(product.coeffs) == plain_convolution(a.coeffs, b.coeffs)
    assert all(type(c) is Fraction for c in product.coeffs)


@exact
@given(st.tuples(st.integers(1, 10), st.sampled_from([1, 2, 3, None])).flatmap(
    lambda spec: st.tuples(
        series(spec[0]),
        inner_of_valuation(spec[0], spec[0] if spec[1] is None else spec[1]),
    )
))
def test_trimmed_compose_is_full_horner(pair):
    # valuations 1, 2 and 3, and the all-zero inner (valuation = order)
    outer, inner = pair
    assert outer.compose(inner) == untrimmed_horner(outer, inner)
