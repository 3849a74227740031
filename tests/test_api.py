"""The public surface: what the CLI, the checks and library users call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pascal_rhombus

PUBLIC = {
    "binomial", "TruncatedSeries", "fibonacci_gf", "catalan_gf", "motzkin2_gf",
    "column_gf", "column_gfs", "RhombusTable", "build_table", "iter_rows", "iter_column",
    "entry_triple_sum", "entry_convolved", "convolved_fib_series", "convolved_fib_gould",
    "convolved_fib_product",
    "count_by_height", "count_motzkin2", "walk_paths", "CheckResult", "run_all",
    "__version__",
}


def test_public_names_are_pinned_and_import():
    assert sorted(pascal_rhombus.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from pascal_rhombus import *", namespace)  # raises on a name it cannot import
    assert PUBLIC <= namespace.keys()


def test_dir_lists_every_public_name():
    assert set(pascal_rhombus.__all__) <= set(dir(pascal_rhombus))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_route'"):
        pascal_rhombus.no_such_route


def test_a_public_name_is_its_module_attribute():
    assert pascal_rhombus.entry_convolved is pascal_rhombus.closedforms.entry_convolved
    assert pascal_rhombus.TruncatedSeries is pascal_rhombus.series.TruncatedSeries


def test_submodule_imports_from_a_fresh_interpreter():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "from pascal_rhombus import closedforms\n"
                                     "print(closedforms.entry_convolved(5, 0))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "82\n", "")
