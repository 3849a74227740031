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

Importing the package loads none of its modules.  Each public name loads
the module that defines it on first access, so a program compiles only the
routes it uses.  The CLI does the same per command: ``series`` loads
``series``, ``row`` and ``column`` load ``rhombus``, ``entry`` the module of
each method it runs, and ``check`` every module (see ``cli``).
"""

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "binomial": "closedforms",
    "TruncatedSeries": "series",
    "fibonacci_gf": "series",
    "catalan_gf": "series",
    "motzkin2_gf": "series",
    "column_gf": "series",
    "column_gfs": "series",
    "RhombusTable": "rhombus",
    "build_table": "rhombus",
    "iter_rows": "rhombus",
    "iter_column": "rhombus",
    "entry_triple_sum": "closedforms",
    "entry_convolved": "closedforms",
    "convolved_fib_series": "closedforms",
    "convolved_fib_gould": "closedforms",
    "convolved_fib_product": "closedforms",
    "count_by_height": "paths",
    "count_motzkin2": "paths",
    "walk_paths": "paths",
    "CheckResult": "checks",
    "run_all": "checks",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    # PEP 562: called only for a name not bound here, so each access reads
    # the defining module's attribute as it stands
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # binds the module here by its name
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
