"""Cross-method consistency checks.

Every quantity in this library is computable along several independent
routes; each function here runs one family of comparisons over explicit
bounds.  Each suite lazily yields labelled points, with the value every
route gives there, to :func:`first_disagreement`.  That helper is the one
rule of agreement (exact equality of all values) and of the failure detail,
and it stops at the first point that fails.
Each suite looks its routes up by name in this module, so a test proves that
the checks bite by monkeypatching one name here (``build_table``,
``column_gf``, ...) with a corrupted version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .closedforms import (
    binomial,
    convolved_fib_gould,
    convolved_fib_product,
    convolved_fib_series,
    entry_convolved,
    entry_triple_sum,
)
from .paths import DEFAULT_CAP, count_by_height, count_motzkin2
from .rhombus import build_table
from .series import (
    COLUMN_METHODS, MOTZKIN2_METHODS, TruncatedSeries, catalan_gf, column_gf, motzkin2_gf,
)

__all__ = [
    "CheckResult",
    "check_method_agreement",
    "check_oracle_agreement",
    "check_motzkin2_routes",
    "check_column_functional_equation",
    "check_column_routes",
    "check_convolved_fibonacci",
    "check_catalan_binomial",
    "check_symmetry",
    "first_disagreement",
    "run_all",
]

Points = Iterable[tuple[str, dict[str, object]]]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIPPED"
        return "PASS" if self.passed else "FAIL"


def first_disagreement(points: Points) -> str | None:
    """``None`` if at every ``(where, {route: value})`` point all routes give
    the same value, else ``first disagreement at <where>: r1=v1, r2=v2, ...``."""
    for where, values in points:
        if len(set(values.values())) != 1:
            listed = ", ".join(f"{route}={value}" for route, value in values.items())
            return f"first disagreement at {where}: {listed}"
    return None


def _agreement(name: str, points: Points) -> CheckResult:
    detail = first_disagreement(points)
    return CheckResult(name, detail is None, detail or "")


def _coefficients(where: str, routes: dict[str, TruncatedSeries]) -> Points:
    """One point per power x^k, comparing coefficient k of every series."""
    order = min(series.order for series in routes.values())
    return (
        (f"x^{k}{where}", {route: series.coeffs[k] for route, series in routes.items()})
        for k in range(order)
    )


def check_method_agreement(max_i: int = 40, series_order: int = 30) -> CheckResult:
    """recurrence = triple sum = convolved form for all entries to max_i,
    and = series coefficients where the column generating functions reach."""
    name = f"method-agreement (i <= {max_i})"
    series_j_cap = 6
    table = build_table(max_i)
    columns = {
        j: column_gf(j, series_order).coeffs
        for j in range(min(series_j_cap, max_i) + 1)
    }

    def points():
        for i in range(max_i + 1):
            for j in range(-i, i + 1):
                values = {
                    "recurrence": table.entry(i, j),
                    "triple_sum": entry_triple_sum(i, j),
                    "convolved": entry_convolved(i, j),
                }
                if abs(j) <= series_j_cap and i < series_order:
                    values["series"] = columns[abs(j)][i]
                yield f"(i={i}, j={j})", values

    return _agreement(name, points())


def check_oracle_agreement(max_n: int = 12, oracle_cap: int = DEFAULT_CAP) -> CheckResult:
    """Exhaustive path counts equal table entries (all heights, n <= max_n)
    and the closed-path counts equal the motzkin2 series coefficients."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    name = f"oracle-agreement (n <= {max_n})"
    if max_n == 0:
        return CheckResult(name, True, "max_n is 0", skipped=True)
    table = build_table(max_n)
    b = motzkin2_gf(max_n + 1).coeffs

    def points():
        for n in range(max_n + 1):
            counts = count_by_height(n, cap=oracle_cap)
            for j in range(-n, n + 1):
                yield f"(n={n}, j={j})", {"oracle": counts.get(j, 0), "table": table.entry(n, j)}
            closed = count_motzkin2(n, cap=oracle_cap)
            yield f"closed paths of length n={n}", {"oracle": closed, "series": b[n]}

    return _agreement(name, points())


def check_motzkin2_routes(order: int = 30) -> CheckResult:
    """All three constructions of the motzkin2 series agree coefficient-wise."""
    name = f"motzkin2-route-agreement (order {order})"
    routes = {method: motzkin2_gf(order, method) for method in MOTZKIN2_METHODS}
    return _agreement(name, _coefficients("", routes))


def check_column_functional_equation(order: int = 30) -> CheckResult:
    """Each column series M satisfies M = x^j B^j + (x + x^2) M + 2 x^2 B M."""
    max_j = 5
    name = f"column-functional-equation (j <= {max_j})"
    b = motzkin2_gf(order)
    x_plus_x2 = TruncatedSeries.from_coeffs([0, 1, 1], order)
    two_x2_b = TruncatedSeries.monomial(2, order) * b * 2

    def points():
        for j in range(max_j + 1):
            for method in COLUMN_METHODS:
                m = column_gf(j, order, method)
                rhs = TruncatedSeries.monomial(j, order) * b ** j + x_plus_x2 * m + two_x2_b * m
                yield from _coefficients(f" of column {j} ({method})", {"lhs": m, "rhs": rhs})

    return _agreement(name, points())


def check_column_routes(order: int = 30) -> CheckResult:
    """Both column constructions agree and give non-negative integers."""
    max_j = 6
    name = f"column-route-agreement (j <= {max_j})"
    for j in range(max_j + 1):
        routes = {method: column_gf(j, order, method) for method in COLUMN_METHODS}
        detail = first_disagreement(_coefficients(f" of column {j}", routes))
        if detail:
            return CheckResult(name, False, detail)
        closed = routes["closed_form"]
        for k, c in enumerate(closed.coeffs):
            if c.denominator != 1:
                return CheckResult(name, False, f"column {j} has non-integer coefficient at x^{k}")
        if any(c < 0 for c in closed.coeffs):
            return CheckResult(name, False, f"column {j} has a negative coefficient")
    return CheckResult(name, True)


def check_convolved_fibonacci() -> CheckResult:
    """Binomial form = series form everywhere tested; composition-product
    form agrees on the smaller range it can afford."""
    series_j, series_r, product_j, product_r = 20, 6, 12, 4
    name = f"convolved-fibonacci (j <= {series_j}, r <= {series_r})"

    def points():
        for r in range(1, series_r + 1):
            series = convolved_fib_series(r, series_j + 1)
            for j in range(series_j + 1):
                values = {"binomial": convolved_fib_gould(j, r), "series": series[j]}
                if j <= product_j and r <= product_r:
                    values["product"] = convolved_fib_product(j, r)
                yield f"(j={j}, r={r})", values

    return _agreement(name, points())


def check_catalan_binomial(order: int = 30) -> CheckResult:
    """C(x)^j / (1 - 2x C(x)) = sum_m binomial(2m+j, m) x^m, coefficient-wise.

    This is the corrected form.  A variant seen in the literature,
    (1 - 4x)^(-1/2) * ((1 - sqrt(1-4x))/x)^k = sum_m binomial(2m+k, m) x^m,
    is off by a factor 2^k (its k = 1 instance already gives constant term
    2 against 1) and is deliberately not asserted anywhere.
    """
    max_j = 6
    name = f"catalan-binomial-identity (j <= {max_j})"
    c = catalan_gf(order)
    denom = TruncatedSeries.one(order) - TruncatedSeries.monomial(1, order) * c * 2
    inv = denom.reciprocal()

    def points():
        for j in range(max_j + 1):
            rhs = TruncatedSeries.from_coeffs([binomial(2 * m + j, m) for m in range(order)])
            yield from _coefficients(f" of j={j}", {"series": c ** j * inv, "binomial": rhs})

    return _agreement(name, points())


def check_symmetry(max_i: int = 50) -> CheckResult:
    """entry(i, j) = entry(i, -j), both halves computed independently."""
    name = f"symmetry (i <= {max_i})"
    table = build_table(max_i)
    return _agreement(name, (
        (f"(i={i}, j={j})", {"right": table.entry(i, j), "left": table.entry(i, -j)})
        for i in range(max_i + 1)
        for j in range(1, i + 1)
    ))


def run_all(
    max_i: int = 40,
    max_oracle_n: int = 12,
    series_order: int = 30,
    oracle_cap: int = DEFAULT_CAP,
) -> list[CheckResult]:
    """Run every suite; the CLI's one-shot consistency check."""
    return [
        check_method_agreement(max_i, series_order),
        check_oracle_agreement(max_oracle_n, oracle_cap),
        check_motzkin2_routes(series_order),
        check_column_functional_equation(series_order),
        check_column_routes(series_order),
        check_convolved_fibonacci(),
        check_catalan_binomial(series_order),
        check_symmetry(max_i),
    ]
