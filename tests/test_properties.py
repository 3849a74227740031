"""Property-based tests on top of the fixed sweeps, derandomised so every run
draws the same examples and writes no example database."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascal_rhombus import (
    TruncatedSeries, binomial, build_table, catalan_gf, convolved_fib_series, entry_convolved,
    entry_triple_sum, fibonacci_gf,
)
from pascal_rhombus import cli, closedforms

# on a failure hypothesis imports libcst to suggest a patch, and where libcst
# runs on mypy_extensions that import warns; as an error it would turn the
# test's failure report into a pytest INTERNALERROR
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

exact = settings(derandomize=True, database=None, deadline=None, max_examples=30)

small_ints = st.integers(-5, 5)
# small values with zeros often enough to trim, or huge ones
kernel_ints = st.integers(-2, 2) | st.integers(-10**30, 10**30)


@st.composite
def entries_past_the_sweep(draw):
    # check and the acceptance tests sweep i <= 40
    i = draw(st.integers(41, 60))
    return i, draw(st.integers(-i - 2, i + 2))


# (i, j) with i <= 120 and |j| up to two past the row's edge
warm_points = st.lists(st.integers(0, 120).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(-i - 2, i + 2))), max_size=40)


@st.composite
def rows_and_indices(draw):
    n = draw(st.integers(1, 2000))
    return n, draw(st.integers(-2, n + 2) | st.integers())


@st.composite
def series(draw, order, constants=None, values=small_ints):
    coeffs = draw(st.lists(values, min_size=order, max_size=order))
    if constants is not None:
        coeffs[0] = draw(constants)
    return TruncatedSeries.from_coeffs(coeffs)


UNIT = st.sampled_from([1, -1])


def same_order_pair(values):
    return st.integers(1, 12).flatmap(lambda order: st.tuples(
        series(order, values=values), series(order, values=values)
    ))


@st.composite
def inner_of_valuation(draw, order, valuation):
    # zero below x^valuation, nonzero at it if order reaches that far
    rest = max(order - valuation, 0)
    coeffs = [0] * valuation + draw(st.lists(small_ints, min_size=rest, max_size=rest))
    if valuation < order and not coeffs[valuation]:
        coeffs[valuation] = 1
    return TruncatedSeries.from_coeffs(coeffs, order)


def plain_convolution(a, b):
    n = len(a)
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def reference_reciprocal(a):
    out = [Fraction(1, a[0])]
    for n in range(1, len(a)):
        out.append(-sum((a[i] * out[n - i] for i in range(1, n + 1)), Fraction(0)) / a[0])
    return out


def reference_sqrt(a):
    out = [Fraction(1)]
    for n in range(1, len(a)):
        out.append((a[n] - sum((out[i] * out[n - i] for i in range(1, n)), Fraction(0))) / 2)
    return out


def kernel_operand(constants):
    return st.integers(1, 10).flatmap(lambda order: series(order, constants, kernel_ints))


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


@settings(exact, max_examples=40)
@given(warm_points)
def test_closed_forms_answered_warm_in_any_order_are_the_recurrence(points):
    # the caches, the inner sums and the antidiagonal tails among them, are
    # left as earlier examples and tests filled them, in whatever order
    table = build_table(120)
    want = [table.entry(i, j) for i, j in points]
    assert [entry_triple_sum(i, j) for i, j in points] == want
    assert [entry_convolved(i, j) for i, j in points] == want


SMALL_BOUNDS = {"_triple_weight_rows": 40, "_inner_sum_tails": 40, "_convolved_weight_rows": 40,
                "_conv_prefix_cache": 4000, "_antidiagonal_tails": 40}


@settings(exact, max_examples=40)
@given(warm_points)
def test_closed_forms_answered_warm_past_small_bounds_are_the_recurrence(points):
    # bounds small enough that about every fill lets values go, read at call
    # time, with the stores left as earlier examples and tests filled them
    table = build_table(120)
    stores = {name: getattr(closedforms, name) for name in SMALL_BOUNDS}
    before = {name: dict(store) for name, store in stores.items()}
    with pytest.MonkeyPatch.context() as patch:
        for name, bound in SMALL_BOUNDS.items():
            patch.setattr(stores[name], "kept", bound)
        for i, j in points:
            assert entry_triple_sum(i, j) == entry_convolved(i, j) == table.entry(i, j)
    # a call that grew a store let the oldest go until its bound held again
    for name, store in stores.items():
        held = sum(map(len, store.values()))
        assert held == store.held
        assert store == before[name] or held <= SMALL_BOUNDS[name]


@settings(exact, max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 100)), min_size=1, max_size=12))
def test_convolved_prefixes_filled_in_any_order_are_the_series_power(requests):
    # each depth is built up from the deepest one below it already kept
    # long enough, so the order of requests decides which depths are written
    with pytest.MonkeyPatch.context() as patch:
        store = closedforms._conv_prefix_cache
        patch.setattr(closedforms, "_conv_prefix_cache", type(store)(store.kept))
        for r, count in requests:
            assert closedforms._convolved_prefix(r, count)[:count] == tuple(
                convolved_fib_series(r, count))


@settings(exact, max_examples=200)
@given(rows_and_indices())
def test_binomial_pascal_rule_and_symmetry(point):
    n, k = point
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    assert binomial(n, k) == binomial(n, n - k)


@exact
@given(st.integers(1, 8).flatmap(lambda order: series(order, UNIT)))
def test_series_times_reciprocal_is_one(s):
    assert s * s.reciprocal() == TruncatedSeries.one(s.order)


@exact
@given(st.integers(1, 8).flatmap(lambda order: series(order, st.just(1))))
def test_sqrt_squares_back(t):
    # a square of a unit-constant int series has an int square root
    s = t * t
    assert s.sqrt() == t
    assert s.sqrt() ** 2 == s


@exact
@given(st.integers(2, 6).flatmap(lambda order: st.tuples(series(order), series(order, st.just(0)))))
def test_compose_is_associative_with_x_plus_x2(pair):
    s, t = pair
    p = TruncatedSeries.from_coeffs([0, 1, 1], s.order)
    assert s.compose(t).compose(p) == s.compose(t.compose(p))


@exact
@given(same_order_pair(kernel_ints))
def test_mul_is_the_plain_convolution(pair):
    a, b = pair
    product = a * b
    assert list(product.coeffs) == plain_convolution(a.coeffs, b.coeffs)
    assert all(type(c) is int for c in product.coeffs)


def fixed_pair(order, valuation):
    outer = TruncatedSeries.from_coeffs([(k - 3) * (k % 4 + 1) for k in range(order)])
    inner = TruncatedSeries.from_coeffs([0] * valuation + [1, -2, 5], order)
    return outer, inner


@settings(exact, max_examples=40)
@given(st.tuples(st.integers(1, 40), st.sampled_from([3, 2, 1, None])).flatmap(
    lambda spec: st.tuples(
        series(spec[0]),
        inner_of_valuation(spec[0], spec[0] if spec[1] is None else spec[1]),
    )
))
# the outer terms that can survive, top + 1, are 36 = 6 blocks of 6, a
# perfect square, and 14 = blocks of 3, 3, 3, 3 and a partial 2
@example(fixed_pair(36, 1))
@example(fixed_pair(40, 3))
def test_trimmed_compose_is_full_horner(pair):
    # valuations 1, 2 and 3, and the all-zero inner (valuation = order); up
    # to order 40 the blocks of Paterson–Stockmeyer take sizes 1 to 6
    outer, inner = pair
    assert outer.compose(inner) == untrimmed_horner(outer, inner)


def test_catalan_of_fibonacci_squared_is_full_horner_at_order_91():
    # the top of the column orders that series L<j> requests are benchmarked at
    f = fibonacci_gf(91)
    c = catalan_gf(91)
    assert c.compose(f * f) == untrimmed_horner(c, f * f)


@settings(exact, max_examples=60)
@given(kernel_operand(UNIT))
def test_reciprocal_is_the_fraction_loop(s):
    inverse = s.reciprocal()
    assert list(inverse.coeffs) == reference_reciprocal(s.coeffs)
    assert all(type(c) is int for c in inverse.coeffs)


@settings(exact, max_examples=60)
@given(kernel_operand(st.just(1)))
def test_sqrt_is_the_fraction_loop(t):
    s = t * t
    root = s.sqrt()
    assert list(root.coeffs) == reference_sqrt(s.coeffs)
    assert all(type(c) is int for c in root.coeffs)


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _argv(*parts):
    """One argv joined from strategies that each draw a list of arguments."""
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def past_reach(*names):
    """Values past the default cap of every named row of the CLI's reach table."""
    return st.integers(max(cli.REACH[name][1] for name in names) + 1, 10**9)


# sizes stay small where no cap guards the cost; huge values go only where
# --max-order, --max-depth or --oracle-cap turns them away before any work
SMALL = st.integers(-3, 60)
PAST_MAX_DEPTH = past_reach("recurrence")
SMALL_ORDER = st.integers(-2, 20)
FORMAT = _opt("--format", st.sampled_from(cli.FORMATS))
ORACLE_CAP = _opt("--oracle-cap", st.integers(-2, 8))


@st.composite
def entry_argv(draw):
    method = draw(st.sampled_from([*cli.ROUTES, "all"]))
    # past --max-order (the series reads x^i at order i + 1), --oracle-cap or
    # --max-depth, for all past every route
    past = {"series": past_reach("series L<j>").map(lambda order: order - 1),
            "oracle": st.integers(61, 10**9), "recurrence": PAST_MAX_DEPTH,
            "triple_sum": past_reach("triple_sum"), "convolved": past_reach("convolved"),
            "all": past_reach("recurrence", "triple_sum", "convolved")}
    i = draw(SMALL | past[method])
    return ["entry", str(i), str(draw(st.integers(-70, 70))), "--method", method,
            *draw(ORACLE_CAP), *draw(FORMAT)]


@st.composite
def series_argv(draw):
    name = draw(st.sampled_from(["F", "C", "B", "L", "X", "Lx"])
                | (SMALL | st.integers(61, 10**18)).map(lambda j: f"L{j}"))
    column = re.fullmatch(r"L-?\d+", name)
    order = draw(SMALL_ORDER | past_reach("series L<j>" if column else "series F, C, B"))
    return ["series", name, "--order", str(order), *draw(FORMAT)]


JUNK = st.lists(st.sampled_from([
    "entry", "row", "column", "series", "5", "-1", "B", "L3", "--order", "--terms",
    "--method", "all", "--format", "xml", "abc", "--bogus",
]), max_size=6)

ARGV = st.one_of(
    entry_argv(),
    _argv(st.just(["row"]), (SMALL | PAST_MAX_DEPTH).map(lambda i: [str(i)]), FORMAT),
    _argv(
        st.just(["column"]),
        (SMALL | PAST_MAX_DEPTH | PAST_MAX_DEPTH.map(lambda j: -j)).map(lambda j: [str(j)]),
        # column j --terms t reads row |j| + t - 1
        _opt("--terms", SMALL | PAST_MAX_DEPTH.map(lambda t: t + 1)),
        FORMAT,
    ),
    series_argv(),
    _argv(
        st.just(["check"]),
        _opt("--max-i", st.integers(-2, 10) | past_reach("check --max-i")),
        _opt("--order", SMALL_ORDER | past_reach("check")),
        _opt("--max-oracle-n", st.integers(-2, 6)),
        ORACLE_CAP,
    ),
    JUNK,
)


@settings(exact, max_examples=150)
@given(ARGV)
def test_every_argv_exits_0_1_or_2(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
