"""Truncated series arithmetic and the named generating functions.

Derived expected values were computed with independent oracles (direct
convolution, term-by-term substitution, the convolution recurrence for
Catalan numbers) and frozen here; the tests then check the series engine
against them, never against itself.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from pascal_rhombus import (
    TruncatedSeries,
    catalan_gf,
    column_gf,
    column_gfs,
    fibonacci_gf,
    motzkin2_gf,
)
from pascal_rhombus.series import COLUMN_METHODS, MOTZKIN2_METHODS

FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13]
# convolution of FIBONACCI with itself, by hand
FIBONACCI_SQUARED = [0, 0, 1, 2, 5, 10, 20, 38]
CATALAN = [1, 1, 2, 5, 14, 42]
# square root of 1 - 2x - 5x^2 + 2x^3 + x^4, verified by re-squaring
SQRT_RADICAND = [1, -1, -3, -2, -6, -12, -32, -80]
# Catalan series evaluated at Fibonacci^2: sum_k c_k (F^2)^k, term by term
CATALAN_OF_FIB_SQ = [1, 0, 1, 2, 7, 18, 53]
MOTZKIN2 = [1, 1, 3, 6, 16, 40]
COLUMN0 = [1, 1, 4, 9, 29, 82, 255]
COLUMN1 = [1, 2, 8, 22, 72, 218, 691, 2158]
COLUMN3 = [1, 4, 19, 70, 261, 914, 3177]

RADICAND = [1, -2, -5, 2, 1]


def series(values, order=None):
    return TruncatedSeries.from_coeffs(values, order)


# -- construction and inspection ------------------------------------------


def test_from_coeffs_pads_and_reduces():
    s = series([1, 2], 4)
    assert s.order == 4
    assert s.coeffs == (1, 2, 0, 0)
    assert series([1, 2, 3, 4], 2).coeffs == (1, 2)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        series([1], 0)


def test_valuation():
    assert series([0, 0, 7], 5).valuation() == 2
    assert series([0], 4).valuation() == 4
    assert series([3], 4).valuation() == 0


def test_structural_equality():
    assert series([1, 2], 3) == series([1, 2, 0], 3)
    assert series([1, 2], 3) != series([1, 2], 4)


def test_coefficients_are_checked():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    for bad in (Fraction(1), 1.0):
        with pytest.raises(TypeError):
            TruncatedSeries((bad, 2))
        with pytest.raises(TypeError):
            series([bad, 2])


def test_series_are_immutable():
    s = series([1, 2])
    with pytest.raises(AttributeError):
        s.coeffs = (3,)
    with pytest.raises(AttributeError):
        del s.coeffs
    with pytest.raises(AttributeError):
        s.order_cache = 2
    assert s.coeffs == (1, 2)
    # copies are rebuilt through the constructor, not by setting attributes
    assert copy.deepcopy(s) == pickle.loads(pickle.dumps(s)) == s


def test_equal_series_hash_alike():
    assert hash(series([1, 2], 3)) == hash(series([1, 2, 0], 3))
    assert len({series([1, 2], 3), series([1, 2, 0], 3), series([1, 2], 4)}) == 2


def test_repr_shows_the_coefficients():
    assert repr(series([1, -2])) == "TruncatedSeries(coeffs=(1, -2))"


# -- ring operations --------------------------------------------------------


def test_add_cancellation():
    assert series([1, 1], 3) + series([1, -1], 3) == series([2], 3)


def test_add_identity():
    s = series([3, 1, 4], 3)
    assert s + series([0], 3) == s


def test_add_monomials():
    assert series([0, 1], 4) + series([0, 0, 1], 4) == series([0, 1, 1], 4)


def test_binary_ops_reject_order_mismatch():
    a, b = series([1], 3), series([1], 4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.compose(b)):
        with pytest.raises(ValueError, match="order mismatch"):
            op()


def test_mul_difference_of_squares():
    assert series([1, 1], 3) * series([1, -1], 3) == series([1, 0, -1], 3)


def test_mul_identity():
    s = series([2, 7, 1, 8], 4)
    assert s * TruncatedSeries.one(4) == s


def test_mul_fibonacci_square():
    f = fibonacci_gf(8)
    assert (f * f).integer_coefficients() == FIBONACCI_SQUARED


def test_scalar_mul_and_div():
    s = series([2, 4], 2)
    assert 3 * s == series([6, 12], 2)
    assert s / 2 == series([1, 2], 2)


def test_division_must_be_exact():
    with pytest.raises(ValueError, match=r"^coefficient of x\^2 of the quotient is 3/2, not an integer$"):
        series([2, 4, 3, 5], 4) / 2
    with pytest.raises(ValueError, match=r"x\^1 of the quotient is 1/2,"):
        series([0, -3], 2) / -6
    with pytest.raises(TypeError):
        series([2, 4], 2) * Fraction(1, 2)


def test_pow():
    s = series([1, 1], 6)
    assert s ** 0 == TruncatedSeries.one(6)
    assert s ** 3 == s * s * s
    with pytest.raises(ValueError):
        s ** -1


@pytest.mark.parametrize("exponent", [1, 2, 3, 6, 8, 13])
def test_pow_makes_no_product_past_the_last_bit(monkeypatch, exponent):
    # one squaring per bit below the top one, one product per set bit
    products = []
    plain_mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        products.append(other)
        return plain_mul(self, other)

    s = series([1, 2, 1], 5)
    expected = s
    for _ in range(exponent - 1):
        expected = plain_mul(expected, s)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    assert s ** exponent == expected
    assert len(products) == exponent.bit_length() - 1 + bin(exponent).count("1")


# -- reciprocal --------------------------------------------------------------


def test_reciprocal_geometric():
    assert series([1, -1], 6).reciprocal() == series([1] * 6, 6)


def test_reciprocal_of_one():
    assert TruncatedSeries.one(5).reciprocal() == TruncatedSeries.one(5)


def test_reciprocal_fibonacci_denominator():
    got = series([1, -1, -1], 8).reciprocal()
    assert got.integer_coefficients() == [1, 1, 2, 3, 5, 8, 13, 21]
    assert got * series([1, -1, -1], 8) == TruncatedSeries.one(8)


def test_reciprocal_needs_unit_constant():
    for constant in (0, 2, -3):
        with pytest.raises(ValueError, match=f"constant term 1 or -1, got {constant}"):
            series([constant, 1], 4).reciprocal()


def test_reciprocal_round_trip_battery():
    rng = random.Random(424242)
    for _ in range(25):
        coeffs = [rng.choice((1, -1))] + [rng.randrange(-9, 10) for _ in range(9)]
        s = series(coeffs, 10)
        assert s * s.reciprocal() == TruncatedSeries.one(10)


# -- sqrt --------------------------------------------------------------------


def test_sqrt_of_one():
    assert TruncatedSeries.one(5).sqrt() == TruncatedSeries.one(5)


def test_sqrt_perfect_square():
    square = series([1, 1], 6) * series([1, 1], 6)
    assert square.sqrt() == series([1, 1], 6)


def test_sqrt_radicand_prefix():
    got = series(RADICAND, 8).sqrt()
    assert got == series(SQRT_RADICAND, 8)


def test_sqrt_squares_back():
    rad = series(RADICAND, 30)
    root = rad.sqrt()
    assert root * root == rad
    assert root.coeffs[0] == 1


def test_sqrt_requires_constant_one():
    for bad in ([0, 1], [4], [2, 1]):
        with pytest.raises(ValueError):
            series(bad, 4).sqrt()


def test_sqrt_halvings_must_be_exact():
    # 1 + x is no square: its root would have 1/2 at x^1
    with pytest.raises(ValueError, match=r"^coefficient of x\^1 of the square root is 1/2, "
                                         r"not an integer$"):
        series([1, 1], 4).sqrt()
    # the first halving that fails is named: 1 + 2x + 2x^2 = (1 + x)^2 + x^2
    with pytest.raises(ValueError, match=r"x\^2 of the square root is 1/2,"):
        series([1, 2, 2], 4).sqrt()


def test_sqrt_round_trip_battery():
    rng = random.Random(77)
    for _ in range(25):
        t = series([1] + [rng.randrange(-9, 10) for _ in range(11)], 12)
        s = t * t
        root = s.sqrt()
        assert root == t
        assert root * root == s


# -- compose -----------------------------------------------------------------


def test_compose_identity_substitution():
    c = catalan_gf(10)
    x = TruncatedSeries.monomial(1, 10)
    assert c.compose(x) == c


def test_compose_geometric_with_x_squared():
    geom = series([1, -1], 7).reciprocal()
    x2 = TruncatedSeries.monomial(2, 7)
    assert geom.compose(x2) == series([1, 0, 1, 0, 1, 0, 1], 7)


def test_compose_catalan_of_fibonacci_squared():
    f = fibonacci_gf(7)
    got = catalan_gf(7).compose(f * f)
    assert got.integer_coefficients() == CATALAN_OF_FIB_SQ


def test_compose_rejects_unit_inner():
    with pytest.raises(ValueError):
        series([1, 1], 4).compose(series([1, 1], 4))


# -- shift_div and truncate ----------------------------------------------------


def test_shift_div_basic():
    got = series([0, 1, 1], 3).shift_div(1)
    assert got == series([1, 1], 2)
    assert got.order == 2


def test_shift_div_zero_is_identity():
    s = series([0, 1, 5], 3)
    assert s.shift_div(0) is s


def test_shift_div_fibonacci():
    got = fibonacci_gf(9).shift_div(1)
    assert got.integer_coefficients() == [1, 1, 2, 3, 5, 8, 13, 21]


def test_shift_div_requires_divisibility():
    with pytest.raises(ValueError, match="not divisible"):
        series([1, 1], 4).shift_div(1)
    with pytest.raises(ValueError):
        series([0, 1], 2).shift_div(2)


def test_truncate():
    s = series([1, 2, 3], 3)
    assert s.truncate(2) == series([1, 2], 2)
    with pytest.raises(ValueError):
        s.truncate(4)


# -- named series ------------------------------------------------------------


def test_fibonacci_gf():
    assert fibonacci_gf(8).integer_coefficients() == FIBONACCI
    assert fibonacci_gf(1).integer_coefficients() == [0]
    assert fibonacci_gf(2).integer_coefficients() == [0, 1]


def test_catalan_gf_prefix():
    assert catalan_gf(6).integer_coefficients() == CATALAN


def test_catalan_gf_convolution_recurrence():
    # independent oracle: c_{n+1} = sum_i c_i c_{n-i}
    expected = [1]
    while len(expected) < 16:
        expected.append(sum(expected[i] * expected[-1 - i] for i in range(len(expected))))
    assert catalan_gf(16).integer_coefficients() == expected


def test_catalan_defining_equation():
    c = catalan_gf(20)
    x = TruncatedSeries.monomial(1, 20)
    assert c == TruncatedSeries.one(20) + x * c * c


def test_motzkin2_prefix():
    assert motzkin2_gf(6).integer_coefficients() == MOTZKIN2
    assert motzkin2_gf(1).integer_coefficients() == [1]


def test_motzkin2_all_routes_agree_at_order_30():
    closed = motzkin2_gf(30, "closed_form")
    comp = motzkin2_gf(30, "compositional")
    rec = motzkin2_gf(30, "functional_equation")
    assert closed == comp == rec


def test_motzkin2_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        motzkin2_gf(5, "magic")


def test_column_gf_golden_prefixes():
    assert column_gf(0, 7).integer_coefficients() == COLUMN0
    assert column_gf(1, 9).integer_coefficients()[1:] == COLUMN1
    assert column_gf(3, 10).integer_coefficients()[3:] == COLUMN3


def test_column_gf_leading_zeros():
    assert column_gf(3, 10).valuation() == 3


def test_column_gf_routes_agree():
    for j in range(7):
        assert column_gf(j, 30, "closed_form") == column_gf(j, 30, "functional_equation")


def test_column_gf_integrality():
    # every halving and reciprocal on the way is exact, and the counts are >= 0
    for j in range(7):
        assert all(c >= 0 for c in column_gf(j, 30).integer_coefficients())


def test_column_zero_is_reciprocal_sqrt_radicand():
    # the central column generating function is 1/sqrt(1 - 2x - 5x^2 + 2x^3 + x^4)
    rad = series(RADICAND, 30)
    assert column_gf(0, 30) == rad.sqrt().reciprocal()


def test_column_gf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        column_gf(-1, 10)
    with pytest.raises(ValueError, match="unknown method"):
        column_gf(0, 10, "magic")
    with pytest.raises(ValueError):
        column_gfs(-1, 10)
    with pytest.raises(ValueError, match="order must be positive"):
        column_gfs(3, 0)


@pytest.mark.parametrize("build", [
    fibonacci_gf, catalan_gf,
    *(lambda order, method=method: motzkin2_gf(order, method) for method in MOTZKIN2_METHODS),
], ids=["fibonacci", "catalan", *(f"motzkin2-{method}" for method in MOTZKIN2_METHODS)])
def test_named_series_refuse_order_zero_in_one_message(build):
    with pytest.raises(ValueError, match=r"^order must be positive, got 0$"):
        build(0)


@pytest.mark.parametrize("method", COLUMN_METHODS)
def test_column_gfs_are_the_single_columns(method):
    # h^j L_0 by one binary power is h (... (h L_0)) by successive products:
    # equal at every j, so through many bit patterns of j, and past the order
    order = 40
    columns = column_gfs(order + 2, order, method)
    assert len(columns) == order + 3
    assert columns == [column_gf(j, order, method) for j in range(order + 3)]
    assert columns[3].integer_coefficients()[3:10] == COLUMN3


def count_products(monkeypatch, build):
    """The number of series-by-series products that ``build()`` makes."""
    products = 0
    plain_mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += isinstance(other, TruncatedSeries)
        return plain_mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(TruncatedSeries, "__mul__", counting_mul)
        build()
    return products


@pytest.mark.parametrize("method", COLUMN_METHODS)
@pytest.mark.parametrize("j", [1, 8, 31, 39])
def test_lone_column_takes_logarithmically_many_products(monkeypatch, method, j):
    # one power of the step, not one product per column before j
    base = count_products(monkeypatch, lambda: column_gf(0, 40, method))
    lone = count_products(monkeypatch, lambda: column_gf(j, 40, method))
    assert lone - base <= 2 * j.bit_length()


@pytest.mark.parametrize("method", COLUMN_METHODS)
def test_columns_past_the_order_are_zero(method):
    # L_j has valuation j, so from j = order on it vanishes mod x^order,
    # and a huge j costs no more than j = order
    zero = TruncatedSeries.from_coeffs([], 6)
    assert column_gf(5, 6, method).valuation() == 5
    assert column_gf(6, 6, method) == column_gf(10**20, 6, method) == zero


@pytest.mark.parametrize("method", COLUMN_METHODS)
def test_column_gfs_makes_no_product_past_the_last_column(monkeypatch, method):
    # one product per column after the first, and none that yields the next
    # column; the base that all columns share costs the same for every max_j
    order = 12
    following = [column_gfs(max_j + 1, order, method)[-1] for max_j in range(6)]
    products = []
    plain_mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        product = plain_mul(self, other)
        if isinstance(other, TruncatedSeries):
            products.append(product)
        return product

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    counts = []
    for max_j in range(6):
        products.clear()
        columns = column_gfs(max_j, order, method)
        assert following[max_j] not in products
        if max_j:
            assert products[-1] == columns[-1]
        counts.append(len(products))
    assert counts == [counts[0] + max_j for max_j in range(6)]


def test_catalan_binomial_identity_in_x_squared():
    # C(x^2)^j / (1 - 2x^2 C(x^2)) = sum_m binomial(2m+j, m) x^(2m);
    # the even-substitution shape the series route leans on
    from pascal_rhombus import binomial

    order = 24
    c_sq = catalan_gf(order).compose(TruncatedSeries.monomial(2, order))
    denom = TruncatedSeries.one(order) - TruncatedSeries.monomial(2, order) * c_sq * 2
    inv = denom.reciprocal()
    for j in range(5):
        lhs = (c_sq ** j * inv).integer_coefficients()
        expected = [0] * order
        for m in range(order // 2 + 1):
            if 2 * m < order:
                expected[2 * m] = binomial(2 * m + j, m)
        assert lhs == expected
