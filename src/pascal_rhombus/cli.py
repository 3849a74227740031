"""Command-line interface.

Subcommands: ``entry`` (one value by any method, or all of them), ``row``
and ``column`` (sequences from the recurrence, a column or an entry by it on
the dependency cone of its last entry alone), ``series`` (raw coefficients of
the generating functions F, C, B, L<j>) and ``check`` (the cross-method report).

A request imports, and so compiles, only the modules its command runs:
``series`` loads ``series``; ``row`` and ``column`` load ``rhombus``, and a
row deep enough to split over two CPUs the fork helper ``_fork`` too;
``entry`` loads the module of each method it runs, and with ``--method
all`` also ``checks`` to compare them; ``check`` loads ``checks``, which
loads every route and ``_fork``.

Each route, and each command that builds series, is capped by one flag whose
default comes from ``REACH``; a request past its cap is refused before any
work (``entry --method all`` skips that route with a note on stderr).  The
caps are this module's policy: the library routes take none.

Values go to stdout as exact decimal strings, diagnostics go to stderr.
Exit codes: 0 all good (also when the reader closes the pipe early or
stdout is closed), 1 mathematical disagreement, failed check, internal
invariant failure or output that could not be written, 2 usage error, a
request past its reach included, 130 interrupted (SIGINT), reported as one
line; run as a command, the process then ends by SIGINT itself, which a
shell reports as 130.  A SIGTERM while ``row`` or ``check`` runs a child
ends the child, then this process by SIGTERM (143 in a shell).  A
diagnostic that cannot be written is dropped and the exit code stands.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Sequence, TextIO

# a sequence's text in each format: what goes before, between and after
# the values (json's is the text json.dumps gives a list of ints)
_LAYOUTS = {"plain": ("", ",", ""), "json": ("[", ", ", "]"), "csv": ("", "\n", "")}
FORMATS = tuple(_LAYOUTS)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process the interrupt ends

class UsageError(Exception):
    pass


class OutOfReach(UsageError):
    """A request is past the reach of its route or command, its cap in REACH."""


# values whose text goes out in one write: few enough to hold little, and
# enough that a stream which writes through (python -u) is not given one
# system call per value
_BATCH = 16


def _say(stream: TextIO | None, *values: object, fmt: str = "csv") -> OSError | None:
    """Write ``values`` as one sequence in ``fmt`` and end the line; the
    error if the stream would not take it.

    The values' text is made a batch at a time as it goes out, so the
    output is never held whole.  A stream closed before start (None) takes
    nothing and is no error.
    """
    if stream is None:
        return None
    start, sep, end = _LAYOUTS[fmt]
    try:
        stream.write(start)
        stream.writelines((sep if k else "") + sep.join(map(str, values[k:k + _BATCH]))
                          for k in range(0, len(values), _BATCH))
        stream.write(end + "\n")
        stream.flush()
    except OSError as exc:
        # point the stream at devnull so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


# Each route and command imports the module it runs when it runs, and looks
# the function up there at call time: a request loads only the modules it
# runs, and a rebound module attribute (a test's fake, a tracer's wrapper)
# is honoured.
def _last_row(i: int) -> list[int]:
    from .rhombus import _row

    return _row(i)


def _recurrence(i: int, j: int) -> int:
    from .rhombus import iter_column

    value = 0  # off the triangle, where the column yields nothing
    for value in iter_column(j, i):
        pass
    return value


def _triple_sum(i: int, j: int) -> int:
    from .closedforms import entry_triple_sum

    return entry_triple_sum(i, j)


def _convolved(i: int, j: int) -> int:
    from .closedforms import entry_convolved

    return entry_convolved(i, j)


def _series(i: int, j: int) -> int:
    from .series import column_gf

    # x^i of a truncated series is final at order i + 1
    return column_gf(abs(j), i + 1).coeffs[i]


def _oracle(i: int, j: int) -> int:
    from .paths import count_by_height

    return count_by_height(i).get(j, 0)


ROUTES: dict[str, Callable[[int, int], int]] = {
    "recurrence": _recurrence,
    "triple_sum": _triple_sum,
    "convolved": _convolved,
    "series": _series,
    "oracle": _oracle,
}

# The reach of each route, and of each command that builds series: the flag
# that caps it and that flag's default.  A route's row, keyed by its method,
# caps the row index (row and column read the recurrence's); the series
# method reads the row of series L<j> at its order, i + 1, and check's
# sweep every row up to --max-i.  At a default one request takes about
# 4-7 s on CPython 3.11, 2-CPU x86-64 (row 3000 about 3.1-3.4 s on one CPU
# and 1.8-2.5 s split over two, entry 4500 0
# --method triple_sum, entry 550 0 --method convolved, check --max-i 280;
# series B or C --order 1500 about 1 s, series L<j> --order 700 2.4-3.1 s,
# from L1 to L699), check --order 150 about 0.2 s, column 0 --terms 3001 and
# entry 3000 0 (on the cone, half the additions of row 3000) 1.5-2.3 s, and
# the oracle's walk to 16 about 2-3 s in about 1.5 MB (to 17 it takes 6-10 s).
REACH: dict[str, tuple[str, int]] = {
    "recurrence": ("--max-depth", 3000),
    "triple_sum": ("--max-depth", 4500),
    "convolved": ("--max-depth", 550),
    "oracle": ("--oracle-cap", 16),
    "series L<j>": ("--max-order", 700),
    "series F, C, B": ("--max-order", 1500),
    "check": ("--max-order", 150),
    "check --max-i": ("--max-depth", 280),
}


def _longest_walk() -> int:
    from .paths import MAX_LENGTH

    return MAX_LENGTH


# each cap flag, in the order their ranges are checked: how its refusal
# names the request, how the cost grows, and what gives its largest value,
# asked only when the flag is given (one byte per path holds heights within
# +-paths.MAX_LENGTH only, so the oracle's walk refuses a longer length under
# any cap; row, column and series take no --oracle-cap and never load paths)
_CAPS = {
    "--max-depth": ("row {} is past", "the cost grows faster than the cube of the depth", None),
    "--oracle-cap": ("length {} is past", "time grows about 3.3x per unit of length",
                     _longest_walk),
    "--max-order": ("order {} is above", "the cost grows faster than the cube of the order", None),
}


def _given(flag: str, args: argparse.Namespace) -> int | None:
    return getattr(args, flag[2:].replace("-", "_"), None)


def _cap(name: str, args: argparse.Namespace) -> int:
    """The cap on ``name``: its flag as given, else the flag's default in REACH."""
    flag, default = REACH[name]
    given = _given(flag, args)
    return default if given is None else given


def _reach(name: str, need: int, args: argparse.Namespace) -> None:
    """Refuse a request that needs more than the cap on ``name``."""
    cap = _cap(name, args)
    if need > cap:
        flag = REACH[name][0]
        request, growth, _ = _CAPS[flag]
        raise OutOfReach(f"{request.format(need)} {flag} {cap}; raise the cap knowingly, {growth}")


def _in_range(name: str, value: int, low: int, high: int | None = None) -> None:
    if value < low or high is not None and value > high:
        allowed = f">= {low}" if high is None else f"{low} to {high}"
        raise UsageError(f"{name} must be {allowed}, got {value}")


def _caps_in_range(args: argparse.Namespace) -> None:
    """The one range rule of every cap given, whether or not the request
    reads it; each default in REACH is within it."""
    for flag, (_, _, largest) in _CAPS.items():
        given = _given(flag, args)
        if given is not None:
            _in_range(flag, given, 0, largest() if largest else None)


def _answer(method: str, i: int, j: int, args: argparse.Namespace) -> int:
    """One route's value, refused past its row in REACH."""
    row, need = ("series L<j>", i + 1) if method == "series" else (method, i)
    _reach(row, need, args)
    return ROUTES[method](i, j)


# a command's verdict, the values it outputs and their format
Output = tuple[int, Sequence[object], str]


def _cmd_entry(args: argparse.Namespace) -> Output:
    i, j = args.i, args.j
    _in_range("row index", i, 0)
    if args.method != "all":
        return EXIT_OK, [_answer(args.method, i, j, args)], "plain"

    values: dict[str, int] = {}
    for method in ROUTES:
        try:
            values[method] = _answer(method, i, j, args)
        except OutOfReach as exc:
            _say(sys.stderr, f"skipping {method} method ({exc})")
    if not values:
        raise UsageError(f"every method is past its reach at (i={i}, j={j})")

    from .checks import first_disagreement

    detail = first_disagreement([(f"(i={i}, j={j})", values)])
    if detail:
        _say(sys.stderr, detail)
    # one value per line, as csv prints a sequence, unless json was asked for
    fmt = "json" if args.format == "json" else "csv"
    return (EXIT_DISAGREEMENT if detail else EXIT_OK), list(values.values()), fmt


def _cmd_row(args: argparse.Namespace) -> Output:
    _in_range("row index", args.i, 0)
    _reach("recurrence", args.i, args)
    return EXIT_OK, _last_row(args.i), args.format


def _cmd_column(args: argparse.Namespace) -> Output:
    from .rhombus import iter_column

    _in_range("--terms", args.terms, 1)
    depth = abs(args.j) + args.terms - 1
    _reach("recurrence", depth, args)
    # each value kept as its text: a kept int would keep the allocator's
    # pools that its row was built in from being freed
    return EXIT_OK, list(map(str, iter_column(args.j, depth))), args.format


def _cmd_series(args: argparse.Namespace) -> Output:
    from .series import catalan_gf, column_gf, fibonacci_gf, motzkin2_gf

    _in_range("--order", args.order, 1)
    name = args.name
    column = re.fullmatch(r"L(-?\d+)", name)
    if name not in ("F", "C", "B") and not column:
        raise UsageError(f"unknown series {name!r}; expected F, C, B or L<j>")
    _reach("series L<j>" if column else "series F, C, B", args.order, args)
    if column:
        s = column_gf(abs(int(column.group(1))), args.order)
    else:
        s = {"F": fibonacci_gf, "C": catalan_gf, "B": motzkin2_gf}[name](args.order)
    return EXIT_OK, s.integer_coefficients(), args.format


def _cmd_check(args: argparse.Namespace) -> Output:
    from .checks import run_all

    _in_range("--max-i", args.max_i, 1)
    _reach("check --max-i", args.max_i, args)
    _in_range("--order", args.order, 1)
    _reach("check", args.order, args)
    _in_range("--max-oracle-n", args.max_oracle_n, 0)
    _reach("oracle", args.max_oracle_n, args)
    results = run_all(
        max_i=args.max_i,
        max_oracle_n=args.max_oracle_n,
        series_order=args.order,
    )
    lines = [f"{r.status:7s} {r.name}" + (f": {r.detail}" if r.detail else "") for r in results]
    failed = [r for r in results if not r.passed]
    return (EXIT_DISAGREEMENT if failed else EXIT_OK), lines, "csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascal-rhombus",
        description="Pascal rhombus entries by five independent exact methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="plain")

    def add_cap(p: argparse.ArgumentParser, *names: str) -> None:
        flag = REACH[names[0]][0]
        defaults = ", ".join(f"{REACH[name][1]} for {name}" for name in names)
        p.add_argument(flag, type=int, help=f"refuse a request past this cap (default "
                                            f"{defaults}); past it {_CAPS[flag][1]}")

    p_entry = sub.add_parser("entry", help="one entry r[i][j]")
    p_entry.add_argument("i", type=int)
    p_entry.add_argument("j", type=int)
    p_entry.add_argument("--method", choices=(*ROUTES, "all"), default="recurrence")
    add_cap(p_entry, "series L<j>")
    add_cap(p_entry, "recurrence", "triple_sum", "convolved")
    add_cap(p_entry, "oracle")
    add_format(p_entry)
    p_entry.set_defaults(func=_cmd_entry)

    p_row = sub.add_parser("row", help="one full row of the table")
    p_row.add_argument("i", type=int)
    add_cap(p_row, "recurrence")
    add_format(p_row)
    p_row.set_defaults(func=_cmd_row)

    p_col = sub.add_parser("column", help="a column of the table, top down")
    p_col.add_argument("j", type=int)
    p_col.add_argument("--terms", type=int, default=10)
    add_cap(p_col, "recurrence")
    add_format(p_col)
    p_col.set_defaults(func=_cmd_column)

    p_series = sub.add_parser("series", help="coefficients of F, C, B or L<j>")
    p_series.add_argument("name")
    p_series.add_argument("--order", type=int, default=30)
    add_cap(p_series, "series L<j>", "series F, C, B")
    add_format(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser("check", help="run the full consistency check")
    p_check.add_argument("--max-i", type=int, default=40)
    p_check.add_argument("--max-oracle-n", type=int, default=12)
    p_check.add_argument("--order", type=int, default=30)
    add_cap(p_check, "check")
    add_cap(p_check, "check --max-i")
    add_cap(p_check, "oracle")
    p_check.set_defaults(func=_cmd_check)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Answer one parsed request, and write its output."""
    try:
        _caps_in_range(args)
        verdict, values, fmt = args.func(args)
    except UsageError as exc:
        _say(sys.stderr, f"error: {exc}")
        return EXIT_USAGE
    except (ValueError, IndexError, RecursionError, ChildProcessError) as exc:
        _say(sys.stderr, f"error: internal: {exc}")
        return EXIT_DISAGREEMENT
    except MemoryError:
        _say(sys.stderr, "error: internal: out of memory")
        return EXIT_DISAGREEMENT
    # output with no reader left keeps the verdict; output lost on its way
    # to a reader (a full disk, say) is a failure
    lost = _say(sys.stdout, *values, fmt=fmt)
    if lost is not None and not isinstance(lost, BrokenPipeError):
        _say(sys.stderr, f"error: cannot write the output: {lost}")
        return EXIT_DISAGREEMENT
    return verdict


def main(argv: Sequence[str] | None = None) -> int:
    # values are printed in full: central entries pass CPython's default
    # 4300-digit int->str limit near row 8300 (the call exists from 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        _say(sys.stderr, "error: interrupted")
        return EXIT_INTERRUPTED


def run() -> None:
    code = main()
    if code == EXIT_INTERRUPTED and os.name == "posix":
        # end by the signal itself, as an unhandled interrupt would, so that
        # a calling shell or script sees the process killed by SIGINT
        import signal

        sys.stderr.flush()
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    sys.exit(code)


if __name__ == "__main__":
    run()
