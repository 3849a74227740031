"""Acceptance suite: one test per criterion, exact equality throughout.

Run `pytest tests/test_acceptance.py -v -s` for the one-line-per-criterion
report with timings.
"""

import time

from pascal_rhombus import (
    binomial,
    build_table,
    column_gf,
    convolved_fib_gould,
    convolved_fib_product,
    convolved_fib_series,
    count_by_height,
    count_motzkin2,
    entry_convolved,
    entry_triple_sum,
    iter_rows,
    motzkin2_gf,
)
from pascal_rhombus.cli import main
from pascal_rhombus.series import TruncatedSeries

GOLDEN_ROWS = [
    [1],
    [1, 1, 1],
    [1, 2, 4, 2, 1],
    [1, 3, 8, 9, 8, 3, 1],
    [1, 4, 13, 22, 29, 22, 13, 4, 1],
    [1, 5, 19, 42, 72, 82, 72, 42, 19, 5, 1],
]

GOLDEN_COLUMNS = {
    0: [1, 1, 4, 9, 29, 82, 255],
    1: [1, 2, 8, 22, 72, 218, 691, 2158],
    2: [1, 3, 13, 42, 146, 476, 1574],
    3: [1, 4, 19, 70, 261, 914, 3177],
}


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, description, watch=None):
    suffix = f" [{watch.elapsed:.2f}s]" if watch is not None else ""
    print(f"PASS criterion {number}: {description}{suffix}")


def test_criterion_01_golden_table_by_every_method():
    with Stopwatch() as watch:
        rows = list(iter_rows(5))
        columns = {j: column_gf(j, 6).integer_coefficients() for j in range(6)}
        for i, expected in enumerate(GOLDEN_ROWS):
            assert rows[i] == expected
            for j in range(-i, i + 1):
                assert entry_triple_sum(i, j) == expected[j + i]
                assert entry_convolved(i, j) == expected[j + i]
                assert columns[abs(j)][i] == expected[j + i]
    assert watch.elapsed < 1.0
    report(1, "rows 0-5 reproduced exactly by all four closed routes", watch)


def test_criterion_02_column_series_verbatim():
    with Stopwatch() as watch:
        for j, expected in GOLDEN_COLUMNS.items():
            coeffs = column_gf(j, j + len(expected)).integer_coefficients()
            assert coeffs[:j] == [0] * j
            assert coeffs[j:] == expected
    assert watch.elapsed < 1.0
    report(2, "column generating functions match the vendored expansions", watch)


def test_criterion_03_path_counts_equal_entries_to_12():
    with Stopwatch() as watch:
        table = build_table(12)
        for n in range(13):
            counts = count_by_height(n)
            for j in range(-n, n + 1):
                assert counts.get(j, 0) == table.entry(n, j)
    assert watch.elapsed < 1.0
    report(3, "exhaustive height counts equal table entries for n <= 12", watch)


def test_criterion_04_motzkin2_forms_agree():
    with Stopwatch() as watch:
        closed = motzkin2_gf(30, "closed_form")
        comp = motzkin2_gf(30, "compositional")
        assert closed == comp
        coeffs = closed.integer_coefficients()
        for n in range(13):
            assert count_motzkin2(n) == coeffs[n]
    report(4, "radical and compositional motzkin2 series agree, and match path counts", watch)


def test_criterion_05_column_functional_equation():
    with Stopwatch() as watch:
        order = 30
        b = motzkin2_gf(order)
        x_plus_x2 = TruncatedSeries.from_coeffs([0, 1, 1], order)
        two_x2_b = TruncatedSeries.monomial(2, order) * b * 2
        for j in range(6):
            for method in ("closed_form", "functional_equation"):
                m = column_gf(j, order, method)
                assert m == TruncatedSeries.monomial(j, order) * b ** j + x_plus_x2 * m + two_x2_b * m
    report(5, "column series satisfy their functional equation for j <= 5", watch)


def test_criterion_06_convolved_fibonacci_triangle():
    with Stopwatch() as watch:
        for r in range(1, 5):
            series = convolved_fib_series(r, 13)
            for j in range(13):
                assert convolved_fib_gould(j, r) == series[j] == convolved_fib_product(j, r)
        for r in range(1, 7):
            series = convolved_fib_series(r, 21)
            for j in range(21):
                assert convolved_fib_gould(j, r) == series[j]
    report(6, "binomial, series and product convolved-Fibonacci forms agree", watch)


def test_criterion_07_corrected_catalan_binomial_identity():
    with Stopwatch() as watch:
        order = 30
        c = TruncatedSeries.from_coeffs([1, -4], order + 1).sqrt()
        c = (TruncatedSeries.one(order + 1) - c).shift_div(1) / 2
        denom = TruncatedSeries.one(order) - TruncatedSeries.monomial(1, order) * c * 2
        inv = denom.reciprocal()
        for j in range(7):
            lhs = c ** j * inv
            expected = [binomial(2 * m + j, m) for m in range(order)]
            assert lhs.integer_coefficients() == expected
    report(7, "C(x)^j / (1 - 2xC(x)) expands to binomial(2m+j, m) for j <= 6", watch)


def test_criterion_08_cross_method_sweep_to_40():
    with Stopwatch() as watch:
        table = build_table(40)
        columns = {j: column_gf(j, 41).integer_coefficients() for j in range(7)}
        for i in range(41):
            for j in range(-i, i + 1):
                reference = table.entry(i, j)
                assert entry_triple_sum(i, j) == reference
                assert entry_convolved(i, j) == reference
                if abs(j) <= 6:
                    assert columns[abs(j)][i] == reference
    assert watch.elapsed < 1.0
    report(8, "recurrence, triple sum, convolved and series agree to i = 40", watch)


def test_criterion_09_depth_500_scale():
    with Stopwatch() as watch:
        table = build_table(500)
    central = table.entry(500, 0)
    assert int(str(central)) == central
    assert watch.elapsed < 1.0
    report(9, f"depth-500 table built, central entry has {len(str(central))} digits", watch)


def test_criterion_10_column_integrality():
    with Stopwatch() as watch:
        for j in range(7):
            for method in ("closed_form", "functional_equation"):
                for c in column_gf(j, 30, method).coeffs:
                    assert type(c) is int
    report(10, "all column coefficients are ints, every division on the way exact", watch)


def test_closed_form_column_at_order_200_is_fast():
    # int products take this in about 0.1 s; the gate leaves ten times that
    # for a slow host
    with Stopwatch() as watch:
        column = column_gf(1, 200, "closed_form")
    assert column.coeffs[1:9] == tuple(GOLDEN_COLUMNS[1])
    assert watch.elapsed < 1.0
    report("gate", "closed-form column 1 to order 200 in under 1 s", watch)


def test_check_command_defaults_all_pass(capsys):
    # the one-shot CLI verification run with stock bounds
    with Stopwatch() as watch:
        code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "PASS    method-agreement (i <= 40)",
        "PASS    oracle-agreement (n <= 12)",
        "PASS    motzkin2-route-agreement (order 30)",
        "PASS    column-functional-equation (j <= 5)",
        "PASS    column-route-agreement (j <= 6)",
        "PASS    convolved-fibonacci (j <= 20, r <= 6)",
        "PASS    catalan-binomial-identity (j <= 6)",
        "PASS    symmetry (i <= 40)",
    ]
    report("CLI", "default `check` run reports PASS on every suite", watch)
