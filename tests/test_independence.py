"""The five routes stay independent: no route computes through another.

Only the series kernel (``TruncatedSeries`` and the helpers it calls) and
``binomial`` may be shared.  A route that reached another route's functions
would make the cross-check compare a value with itself.
"""

import ast
import sys
import types
from collections import OrderedDict
from pathlib import Path

import pytest

from pascal_rhombus import checks, cli, closedforms, paths, rhombus, series

MODULES = {"checks": checks, "cli": cli, "closedforms": closedforms, "paths": paths,
           "rhombus": rhombus, "series": series}
PACKAGE = Path(cli.__file__).parent


def function_labels():
    """``module.qualname`` of every function defined in the package, keyed by
    its code and by the code nested in it (comprehensions, inner functions);
    a cached function is labelled by the function it wraps."""
    labels = {}

    def add(code, label):
        labels[code] = label
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, label)

    for short, module in MODULES.items():
        for value in list(vars(module).values()):
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                func = getattr(member, "__func__", getattr(member, "fget", member))
                func = getattr(func, "__wrapped__", func)
                code = getattr(func, "__code__", None)
                if code is not None and getattr(func, "__module__", None) == module.__name__:
                    add(code, f"{short}.{func.__qualname__}")
    return labels


def kernel(labels):
    """The shared kernel: the methods of TruncatedSeries and the functions of
    ``series`` they call by name, plus ``binomial``."""
    methods = {code: label for code, label in labels.items()
               if label.startswith("series.TruncatedSeries.")}
    helpers = {f"series.{name}" for code in methods for name in code.co_names}
    return set(methods.values()) | (helpers & set(labels.values())) | {"closedforms.binomial"}


def footprint(method, labels, i=9, j=3):
    """The package functions that one route calls at (i, j)."""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in labels:
            called.add(labels[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cli.ROUTES[method](i, j)
    finally:
        sys.setprofile(previous)
    return called


def test_no_route_reaches_another(monkeypatch):
    labels = function_labels()
    shared = kernel(labels)
    reached = {}
    for method in cli.ROUTES:
        # empty stores, so each route shows every function it uses, even one
        # an earlier route filled a store through
        for name, store in list(vars(closedforms).items()):
            if isinstance(store, OrderedDict):
                monkeypatch.setattr(closedforms, name, type(store)(store.kept))
        reached[method] = footprint(method, labels)
    own = {"recurrence": "rhombus._cone", "triple_sum": "closedforms.entry_triple_sum",
           "convolved": "closedforms.entry_convolved", "series": "series.column_gf",
           "oracle": "paths.walk_paths"}
    for method, function in own.items():
        assert function in reached[method], method
    for a in reached:
        for b in reached:
            crossed = (reached[a] & reached[b]) - shared
            assert a == b or not crossed, f"{a} and {b} both call {sorted(crossed)}"
    for helper, method in (("_inner_sum", "triple_sum"), ("_inner_sum_tail", "triple_sum"),
                           ("_triple_weight_row", "triple_sum"), ("_TripleStore.grown", "triple_sum"),
                           ("_convolved_weight_row", "convolved"), ("_antidiagonal", "convolved"),
                           ("_convolved_prefix", "convolved"), ("_ConvolvedStore.grown", "convolved")):
        assert [m for m, called in reached.items() if f"closedforms.{helper}" in called] == [method]
    # the Gould sum is a reindexed triple sum
    assert "closedforms.convolved_fib_gould" not in reached["convolved"]


def package_imports(name):
    """(module, name) of every import of a package module in one source file."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pascal")):
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names if alias.name.startswith("pascal")}
    return found


# the fork helper is a process helper, not a route: no route reads another through it
@pytest.mark.parametrize("name, allowed", [
    ("paths", set()),
    ("rhombus", {("_fork", "beside"), ("_fork", "Channel")}),
    ("closedforms", {("series", "TruncatedSeries")}),
])
def test_route_modules_import_only_the_kernel(name, allowed):
    assert package_imports(name) == allowed
