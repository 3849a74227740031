"""The public surface: what the CLI, the checks and library users call."""

import pascal_rhombus

PUBLIC = {
    "binomial", "TruncatedSeries", "fibonacci_gf", "catalan_gf", "motzkin2_gf",
    "column_gf", "column_gfs", "RhombusTable", "build_table", "iter_rows", "entry_triple_sum",
    "entry_convolved", "convolved_fib_series", "convolved_fib_gould", "convolved_fib_product",
    "count_by_height", "count_motzkin2", "walk_paths", "CheckResult", "run_all",
    "__version__",
}


def test_public_names_are_pinned_and_import():
    assert sorted(pascal_rhombus.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from pascal_rhombus import *", namespace)  # raises on a name it cannot import
    assert PUBLIC <= namespace.keys()
