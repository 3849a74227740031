"""Pascal rhombus entries by five independent exact methods.

The rhombus is the integer array (OEIS A059317) generated by

    r[i][j] = r[i-1][j-1] + r[i-1][j] + r[i-1][j+1] + r[i-2][j]

from the single seed r[0][0] = 1.  Its entries equal counts of
lattice paths over the steps U = (1,1), D = (1,-1), H = (1,0), H2 = (2,0)
classified by final height, and admit binomial and convolved-Fibonacci
closed forms as well as explicit column generating functions.  This
package computes entries along every one of those routes, in exact
arithmetic throughout, and ships the consistency checks that compare the
routes coefficient by coefficient.
"""

from .checks import CheckResult, run_all
from .closedforms import (
    binomial,
    convolved_fib_gould,
    convolved_fib_product,
    convolved_fib_series,
    entry_convolved,
    entry_triple_sum,
)
from .paths import count_by_height, count_motzkin2, walk_paths
from .rhombus import RhombusTable, build_table, iter_rows
from .series import (
    TruncatedSeries,
    catalan_gf,
    column_gf,
    column_gfs,
    fibonacci_gf,
    motzkin2_gf,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "TruncatedSeries",
    "fibonacci_gf",
    "catalan_gf",
    "motzkin2_gf",
    "column_gf",
    "column_gfs",
    "RhombusTable",
    "build_table",
    "iter_rows",
    "entry_triple_sum",
    "entry_convolved",
    "convolved_fib_series",
    "convolved_fib_gould",
    "convolved_fib_product",
    "count_by_height",
    "count_motzkin2",
    "walk_paths",
    "CheckResult",
    "run_all",
    "__version__",
]
