"""Spans and counters recorded from outside the package under test.

:func:`install` wraps public functions of ``pascal_rhombus`` in every module
namespace where callers look them up (``cli.build_table``,
``checks.entry_convolved``, ``closedforms.convolved_fib_series``, ...) and
wraps the kernel methods of ``TruncatedSeries``, ``__mul__`` and
``__rmul__`` both.  Only public names are used, so a later change that
deletes a private helper cannot break the benchmark; a public function that
disappears is simply not traced.

Routes, suites and the CLI entry get spans: name, start, end, parent span
and self time (duration minus the time of traced calls made inside it).
Kernel operations get aggregate counts and inclusive times only, because
there are too many of them for spans; the time of an outermost kernel call
is charged to the enclosing span as child time.

Blind spot: ``closedforms`` routes its binomials through a private memo
that holds the original ``binomial``, so those calls are invisible here.

Spans stay in memory; :meth:`Tracer.dump` writes them out at exit.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable

LAYERS = ("cli", "checks", "rhombus", "closedforms", "series", "paths")

# the eight suites run_all calls, as checks.<suite> span names
SUITES = {
    "check_method_agreement": "method_agreement",
    "check_oracle_agreement": "oracle_agreement",
    "check_motzkin2_routes": "motzkin2_routes",
    "check_column_functional_equation": "column_functional_equation",
    "check_column_routes": "column_routes",
    "check_convolved_fibonacci": "convolved_fibonacci",
    "check_catalan_binomial": "catalan_binomial",
    "check_symmetry": "symmetry",
}

_clock = time.perf_counter


def _arguments(sig: inspect.Signature, args: tuple, kwargs: dict) -> dict:
    """Arguments of a call by parameter name, in order, defaults applied."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self) -> None:
        # open spans: [name, start, seconds spent in traced callees]
        self._open: list[list] = []
        self.spans: list[tuple] = []
        self.kernel: dict[str, float] = {}
        self._kernel_depth = 0

    # -- recording -------------------------------------------------------

    def span(self, fn: Callable, name: str | Callable, attrs: Callable | None = None) -> Callable:
        """Wrap ``fn`` so every call records one span.

        ``name`` may be a function of (args, kwargs); ``attrs`` is called as
        attrs(args, kwargs, result, parent_name) and returns a dict of
        counters for the span.
        """
        opened = self._open

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = opened[-1][0] if opened else None
            frame = [label, _clock(), 0.0]
            opened.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                opened.pop()
                duration = end - frame[1]
                if opened:
                    opened[-1][2] += duration
                extra = attrs(args, kwargs, result, parent) if attrs else None
                self.spans.append((label, frame[1], end, parent, duration - frame[2], extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, fn: Callable, op: str) -> Callable:
        """Wrap a kernel method: count calls and inclusive time under ``op``."""
        kernel = self.kernel
        opened = self._open
        calls, seconds = f"{op}.calls", f"{op}.s"

        def wrapper(*args, **kwargs):
            self._kernel_depth += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._kernel_depth -= 1
                kernel[calls] = kernel.get(calls, 0) + 1
                kernel[seconds] = kernel.get(seconds, 0.0) + elapsed
                if op == "mul" and hasattr(args[1], "coeffs"):
                    n = len(args[0].coeffs)
                    kernel["mul.coeff_products"] = kernel.get("mul.coeff_products", 0) + n * (n + 1) // 2
                if not self._kernel_depth:
                    kernel["outer.s"] = kernel.get("outer.s", 0.0) + elapsed
                    if opened:
                        opened[-1][2] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        """Forget what was recorded so far; the wrappers stay installed."""
        self.spans.clear()
        self.kernel.clear()

    def dump(self, fd: int) -> None:
        """Write the recorded spans and kernel counters to ``fd`` as JSON."""
        with open(fd, "w", closefd=True) as out:
            json.dump({"spans": self.spans, "kernel": self.kernel}, out)


def _rebind(modules: list, original: Callable, wrapper: Callable) -> None:
    """Point every module attribute that holds ``original`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Import the package, wrap its layers and return the recording tracer."""
    importlib.import_module("pascal_rhombus")
    mods = {layer: importlib.import_module(f"pascal_rhombus.{layer}") for layer in LAYERS}
    # every loaded module of the package, so callers in modules added later are covered too
    everywhere = [m for name, m in list(sys.modules.items())
                  if name == "pascal_rhombus" or name.startswith("pascal_rhombus.")]
    tracer = Tracer()

    def wrap(layer: str, fname: str, name=None, attrs=None) -> None:
        fn = getattr(mods[layer], fname, None)
        if fn is None:
            return
        _rebind(everywhere, fn, tracer.span(fn, name or f"{layer}.{fname}", attrs))

    def by_method(layer: str, fname: str) -> None:
        fn = getattr(mods[layer], fname, None)
        if fn is None:
            return
        sig = inspect.signature(fn)
        wrap(layer, fname, lambda a, kw: f"{layer}.{fname}.{_arguments(sig, a, kw).get('method')}")

    def rows_built(args, kwargs, result, parent):
        return {"rows": result.depth + 1} if result is not None else None

    convolved = getattr(mods["closedforms"], "entry_convolved", None)
    convolved_sig = inspect.signature(convolved) if convolved else None

    def lookups(args, kwargs, result, parent):
        # one convolved-Fibonacci prefix per term m of the sum
        i, j = list(_arguments(convolved_sig, args, kwargs).values())[:2]
        j = abs(j)
        return {"lookups": (i - j) // 2 + 1 if 0 <= j <= i else 0}

    def build_origin(args, kwargs, result, parent):
        return {"prefix_build": 1} if parent == "closedforms.entry_convolved" else None

    def walked(args, kwargs, result, parent):
        if result is None:
            return None
        return {"paths": sum(result.values()) if isinstance(result, dict) else result}

    wrap("cli", "main")
    wrap("checks", "run_all")
    for fname, suite in SUITES.items():
        wrap("checks", fname, f"checks.{suite}")
    wrap("rhombus", "build_table", attrs=rows_built)
    wrap("closedforms", "entry_triple_sum")
    wrap("closedforms", "entry_convolved", attrs=lookups)
    wrap("closedforms", "convolved_fib_series", attrs=build_origin)
    wrap("closedforms", "convolved_fib_gould")
    wrap("closedforms", "convolved_fib_product")
    by_method("series", "column_gf")
    by_method("series", "motzkin2_gf")
    wrap("series", "catalan_gf")
    wrap("series", "fibonacci_gf")
    wrap("paths", "count_by_height", attrs=walked)
    wrap("paths", "count_motzkin2", attrs=walked)

    cls = mods["series"].TruncatedSeries
    for attr, op in (("__mul__", "mul"), ("__rmul__", "mul"), ("__pow__", "pow"),
                     ("reciprocal", "reciprocal"), ("sqrt", "sqrt"), ("compose", "compose")):
        method = cls.__dict__.get(attr)
        if method is not None:
            setattr(cls, attr, tracer.aggregate(method, op))
    return tracer
