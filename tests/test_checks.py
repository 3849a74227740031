"""The consistency-check suites, including proof that they catch faults."""

from fractions import Fraction

import pytest

from pascal_rhombus import RhombusTable, TruncatedSeries, build_table, checks, run_all
from pascal_rhombus.checks import (
    check_catalan_binomial,
    check_column_functional_equation,
    check_column_routes,
    check_convolved_fibonacci,
    check_method_agreement,
    check_motzkin2_routes,
    check_oracle_agreement,
    check_symmetry,
    first_disagreement,
)


def corrupt_table(monkeypatch, i=7, j=3):
    """Make every table the suites build carry r[i][j] raised by one."""

    def corrupted(depth):
        rows = [build_table(depth).row(k) for k in range(depth + 1)]
        rows[i][j + i] += 1
        return RhombusTable(rows)

    monkeypatch.setattr(checks, "build_table", corrupted)


def bumped(series, k, by=1):
    """The same series with coefficient k raised by ``by``."""
    coeffs = list(series.coeffs)
    coeffs[k] += by
    return TruncatedSeries(tuple(coeffs))


def test_first_disagreement_names_the_first_failing_point():
    consumed = []

    def points():
        for k in range(5):
            consumed.append(k)
            yield f"x^{k}", {"a": k, "b": -1 if k == 2 else k}

    assert first_disagreement(points()) == "first disagreement at x^2: a=2, b=-1"
    assert consumed == [0, 1, 2]
    assert first_disagreement([("p", {"a": 1, "b": 1}), ("q", {"a": 2})]) is None


def test_run_all_passes_at_reduced_bounds():
    results = run_all(max_i=15, max_oracle_n=6, series_order=16)
    assert all(r.passed for r in results)
    assert not any(r.skipped for r in results)


def test_status_strings():
    results = run_all(max_i=6, max_oracle_n=0, series_order=8)
    by_name = {r.name: r for r in results}
    oracle = next(r for name, r in by_name.items() if name.startswith("oracle"))
    assert oracle.skipped and oracle.status == "SKIPPED"
    assert all(r.status == "PASS" for r in results if not r.skipped)


def test_method_agreement_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch)
    result = check_method_agreement(max_i=12, series_order=13)
    assert not result.passed
    assert "(i=7, j=3)" in result.detail
    assert "recurrence=" in result.detail


def test_symmetry_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch)
    result = check_symmetry(max_i=12)
    assert not result.passed
    assert "i=7" in result.detail


def test_oracle_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch, i=6, j=-2)
    result = check_oracle_agreement(max_n=8)
    assert not result.passed
    assert "n=6" in result.detail


def test_oracle_skipped_at_zero():
    result = check_oracle_agreement(0)
    assert result.skipped and result.passed


def test_oracle_rejects_negative_max_n():
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        check_oracle_agreement(-2)


def test_individual_suites_pass():
    assert check_motzkin2_routes(30).passed
    assert check_column_functional_equation(30).passed
    assert check_column_routes(30).passed
    assert check_convolved_fibonacci().passed
    assert check_catalan_binomial(30).passed


def test_motzkin2_routes_catch_corruption(monkeypatch):
    real = checks.motzkin2_gf

    def corrupted(order, method="closed_form"):
        series = real(order, method)
        return bumped(series, 9) if method == "compositional" else series

    monkeypatch.setattr(checks, "motzkin2_gf", corrupted)
    result = check_motzkin2_routes(20)
    assert result.status == "FAIL"
    assert "x^9" in result.detail
    assert "compositional=" in result.detail


def test_column_functional_equation_catches_corruption(monkeypatch):
    real = checks.column_gf

    def corrupted(j, order, method="closed_form"):
        series = real(j, order, method)
        return bumped(series, 7) if (j, method) == (2, "functional_equation") else series

    monkeypatch.setattr(checks, "column_gf", corrupted)
    result = check_column_functional_equation(16)
    assert result.status == "FAIL"
    assert "column 2" in result.detail and "x^7" in result.detail
    assert "functional_equation" in result.detail


def test_column_routes_catch_corruption(monkeypatch):
    real = checks.column_gf

    def corrupted(j, order, method="closed_form"):
        series = real(j, order, method)
        return bumped(series, 5) if (j, method) == (3, "closed_form") else series

    monkeypatch.setattr(checks, "column_gf", corrupted)
    result = check_column_routes(16)
    assert result.status == "FAIL"
    assert "column 3" in result.detail and "x^5" in result.detail
    assert "closed_form=" in result.detail and "functional_equation=" in result.detail


def test_convolved_fibonacci_catches_corruption(monkeypatch):
    real = checks.convolved_fib_gould
    monkeypatch.setattr(
        checks, "convolved_fib_gould",
        lambda j, r: real(j, r) + ((j, r) == (9, 2)),
    )
    result = check_convolved_fibonacci()
    assert result.status == "FAIL"
    assert "(j=9, r=2)" in result.detail
    assert "binomial=" in result.detail


def test_catalan_binomial_catches_corruption(monkeypatch):
    real = checks.binomial
    # binomial(2m + j, m) with m = 4, j = 2
    monkeypatch.setattr(checks, "binomial", lambda n, k: real(n, k) + ((n, k) == (10, 4)))
    result = check_catalan_binomial(16)
    assert result.status == "FAIL"
    assert "j=2" in result.detail and "x^4" in result.detail


def test_suite_stops_at_first_disagreement(monkeypatch):
    real = checks.convolved_fib_gould
    calls = []

    def corrupted(j, r):
        calls.append((j, r))
        return real(j, r) + ((j, r) == (3, 1))

    monkeypatch.setattr(checks, "convolved_fib_gould", corrupted)
    assert not check_convolved_fibonacci().passed
    assert calls == [(0, 1), (1, 1), (2, 1), (3, 1)]


@pytest.mark.parametrize("route, corrupt_if, k, expected", [
    pytest.param(
        "column_gf", lambda j, order, method="closed_form": (j, method) == (3, "closed_form"), 5,
        {
            "method-agreement (i <= 12)": "first disagreement at (i=5, j=-3): "
            "recurrence=19, triple_sum=19, convolved=19, series=39/2",
            "column-route-agreement (j <= 6)": "first disagreement at x^5 of column 3: "
            "closed_form=39/2, functional_equation=19",
        },
        id="column_gf",
    ),
    pytest.param(
        "motzkin2_gf", lambda order, method="closed_form": True, 4,
        {
            "oracle-agreement (n <= 6)": "first disagreement at closed paths of length n=4: "
            "oracle=16, series=33/2",
        },
        id="motzkin2_gf",
    ),
])
def test_non_integer_coefficient_is_a_fail_line(monkeypatch, route, corrupt_if, k, expected):
    real = getattr(checks, route)

    def corrupted(*args):
        series = real(*args)
        return bumped(series, k, Fraction(1, 2)) if corrupt_if(*args) else series

    monkeypatch.setattr(checks, route, corrupted)
    results = {r.name: r for r in run_all(max_i=12, max_oracle_n=6, series_order=14)}
    assert len(results) == 8
    for name, detail in expected.items():
        assert results[name].status == "FAIL"
        assert results[name].detail == detail
