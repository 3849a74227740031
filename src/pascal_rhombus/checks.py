"""Cross-method consistency checks.

Every quantity in this library is computable along several independent
routes; each function here runs one family of comparisons over explicit
bounds.  Each suite lazily yields labelled points, with the value every
route gives there, to :func:`first_disagreement`.  That helper is the one
rule of agreement (exact equality of all values) and of the failure detail,
and it stops at the first point that fails.
Each suite looks its routes up by name in this module, so a test proves that
the checks bite by monkeypatching one name here (``build_table``,
``column_gfs``, ...) with a corrupted version.  :func:`run_all` builds each
column route's L_0 .. L_6 once for the three suites that read columns; a
suite called without them builds its own.  The suites run to the bounds
they are given and take no caps: how far a request may run is the CLI's
policy.

Where a second CPU is free (``_fork.second_cpu``), :func:`run_all` runs the
four suites that read no column series (oracle-agreement,
motzkin2-route-agreement, convolved-fibonacci and catalan-binomial) in one
forked child while the parent builds the columns and runs the other four;
otherwise, or if the fork fails, all eight run in this process.  Either way
the report is the same.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from ._fork import beside
from .closedforms import (
    binomial,
    convolved_fib_gould,
    convolved_fib_product,
    convolved_fib_series,
    entry_convolved,
    entry_triple_sum,
)
from .paths import walk_paths
from .rhombus import build_table
from .series import (
    COLUMN_METHODS, MOTZKIN2_METHODS, TruncatedSeries, catalan_gf, column_gfs, motzkin2_gf,
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
# L_0 .. L_max_j of each column route, by method
Columns = dict[str, list[TruncatedSeries]]
_COLUMN_J_CAP = 6  # L_0 .. L_6 of each column route: the most any suite reads


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def first_disagreement(points: Points) -> str | None:
    """``None`` if at every ``(where, {route: value})`` point all routes give
    the same value, else ``first disagreement at <where>: r1=v1, r2=v2, ...``.
    A point with no values is a broken suite, not a disagreement: it raises
    ``ValueError``."""
    for where, values in points:
        if not values:
            raise ValueError(f"no route gave a value at {where}")
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


def check_method_agreement(max_i: int = 40, series_order: int = 30,
                           series_columns: list[TruncatedSeries] | None = None) -> CheckResult:
    """recurrence = triple sum = convolved form for all entries to max_i,
    and = series coefficients where the closed-form columns reach."""
    name = f"method-agreement (i <= {max_i})"
    table = build_table(max_i)
    if series_columns is None:
        series_columns = column_gfs(min(_COLUMN_J_CAP, max_i), series_order)

    def points():
        for i in range(max_i + 1):
            for j in range(-i, i + 1):
                values = {
                    "recurrence": table.entry(i, j),
                    "triple_sum": entry_triple_sum(i, j),
                    "convolved": entry_convolved(i, j),
                }
                if abs(j) <= _COLUMN_J_CAP and i < series_order:
                    values["series"] = series_columns[abs(j)].coeffs[i]
                yield f"(i={i}, j={j})", values

    return _agreement(name, points())


def check_oracle_agreement(max_n: int = 12) -> CheckResult:
    """Exhaustive path counts equal table entries (all heights, n <= max_n)
    and the closed-path counts equal the motzkin2 series coefficients."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    name = f"oracle-agreement (n <= {max_n})"
    table = build_table(max_n)
    b = motzkin2_gf(max_n + 1).coeffs
    by_height, closed = walk_paths(max_n)

    def points():
        for n in range(max_n + 1):
            for j in range(-n, n + 1):
                yield f"(n={n}, j={j})", {"oracle": by_height[n].get(j, 0), "table": table.entry(n, j)}
            yield f"closed paths of length n={n}", {"oracle": closed[n], "series": b[n]}

    return _agreement(name, points())


def check_motzkin2_routes(order: int = 30) -> CheckResult:
    """All three constructions of the motzkin2 series agree coefficient-wise."""
    name = f"motzkin2-route-agreement (order {order})"
    routes = {method: motzkin2_gf(order, method) for method in MOTZKIN2_METHODS}
    return _agreement(name, _coefficients("", routes))


def check_column_functional_equation(order: int = 30, columns: Columns | None = None) -> CheckResult:
    """Each column series M satisfies M = x^j B^j + (x + x^2) M + 2 x^2 B M."""
    max_j = 5
    name = f"column-functional-equation (j <= {max_j})"
    if columns is None:
        columns = {method: column_gfs(max_j, order, method) for method in COLUMN_METHODS}
    b = motzkin2_gf(order)
    x_plus_x2 = TruncatedSeries.from_coeffs([0, 1, 1], order)
    two_x2_b = TruncatedSeries.monomial(2, order) * b * 2

    def points():
        for j in range(max_j + 1):
            x_b_j = TruncatedSeries.monomial(j, order) * b ** j
            for method in COLUMN_METHODS:
                m = columns[method][j]
                rhs = x_b_j + x_plus_x2 * m + two_x2_b * m
                yield from _coefficients(f" of column {j} ({method})", {"lhs": m, "rhs": rhs})

    return _agreement(name, points())


def check_column_routes(order: int = 30, columns: Columns | None = None) -> CheckResult:
    """Both column constructions agree, and after each column's agreement the
    point ``x^k of column j`` checks that closed-form coefficient c = |c|."""
    name = f"column-route-agreement (j <= {_COLUMN_J_CAP})"
    if columns is None:
        columns = {method: column_gfs(_COLUMN_J_CAP, order, method) for method in COLUMN_METHODS}

    def points():
        for j in range(_COLUMN_J_CAP + 1):
            routes = {method: columns[method][j] for method in COLUMN_METHODS}
            yield from _coefficients(f" of column {j}", routes)
            for k, c in enumerate(routes["closed_form"].coeffs):
                yield f"x^{k} of column {j}", {"closed_form": c, "|closed_form|": abs(c)}

    return _agreement(name, points())


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


Outcome = CheckResult | Exception  # a suite's result, or the exception it raised


def _outcomes(suites: list[Callable[[], CheckResult]]) -> list[Outcome]:
    """Each suite's result in turn, up to the first to raise: its exception
    ends the list."""
    outcomes: list[Outcome] = []
    for suite in suites:
        try:
            outcomes.append(suite())
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _sent(outcome: Outcome) -> tuple | bytes:
    """An outcome as marshal sends it: a result as its fields, an exception
    as its pickle (pickle, slow to import, loads only where a suite raised)."""
    if isinstance(outcome, CheckResult):
        return tuple(outcome)
    import pickle

    return pickle.dumps(outcome)


def _received(sent: tuple | bytes) -> Outcome:
    if isinstance(sent, tuple):
        return CheckResult(*sent)
    import pickle

    return pickle.loads(sent)


def run_all(
    max_i: int = 40,
    max_oracle_n: int = 12,
    series_order: int = 30,
) -> list[CheckResult]:
    """Run every suite; the CLI's one-shot consistency check.

    The four suites that read no column series (oracle-agreement,
    motzkin2-route-agreement, convolved-fibonacci, catalan-binomial) run in
    one forked child where there is a second CPU: ``os.fork`` exists, the
    process may run on two CPUs, its cgroups allow two CPUs' worth of time
    and no other thread runs.  Meanwhile this
    process builds the column series and runs method-agreement, the two
    column suites and symmetry.  Without a second CPU, or if the fork fails,
    the four run here after the others.  The results come in the order of
    the list below, and of the suites that raise, the one first in that
    order raises here; a child that ends without its results raises
    ``ChildProcessError``.
    """
    columns: Columns = {}
    # the report's suites in order, each with whether it runs in this process
    suites: list[tuple[bool, Callable[[], CheckResult]]] = [
        (True, lambda: check_method_agreement(max_i, series_order, columns["closed_form"])),
        (False, lambda: check_oracle_agreement(max_oracle_n)),
        (False, lambda: check_motzkin2_routes(series_order)),
        (True, lambda: check_column_functional_equation(series_order, columns)),
        (True, lambda: check_column_routes(series_order, columns)),
        (False, check_convolved_fibonacci),
        (False, lambda: check_catalan_binomial(series_order)),
        (True, lambda: check_symmetry(max_i)),
    ]
    apart = [suite for here, suite in suites if not here]
    with beside(lambda child: [_sent(outcome) for outcome in _outcomes(apart)],
                "the suites'") as child:
        for method in COLUMN_METHODS:
            columns[method] = column_gfs(_COLUMN_J_CAP, series_order, method)
        outcomes = {True: iter(_outcomes([suite for here, suite in suites if here])),
                    False: iter(_outcomes(apart) if child is None
                                else map(_received, child.receive()))}
    results = []
    for here, _ in suites:
        outcome = next(outcomes[here])
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return results
