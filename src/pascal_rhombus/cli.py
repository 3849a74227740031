"""Command-line interface.

Subcommands: ``entry`` (one value by any method, or all of them), ``row``
and ``column`` (sequences from the recurrence table), ``series`` (raw
coefficients of the named generating functions F, C, B, L<j>) and ``check``
(the one-shot cross-method verification report).

Values go to stdout as exact decimal strings, diagnostics go to stderr.
Exit codes: 0 all good (also when the reader closes the pipe early),
1 mathematical disagreement, failed check or internal invariant failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Sequence, TextIO

from .checks import first_disagreement, run_all
from .closedforms import entry_convolved, entry_triple_sum
from .paths import DEFAULT_CAP, count_by_height
from .rhombus import build_table
from .series import catalan_gf, column_gf, fibonacci_gf, motzkin2_gf

FORMATS = ("plain", "json", "csv")

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class OutOfReach(UsageError):
    """A route cannot reach the requested entry within its --order or --oracle-cap."""


def _say(text: str, stream: TextIO) -> None:
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point the stream at devnull so the flush
        # at shutdown cannot fail again; the caller keeps the command's verdict
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _emit_sequence(values: list[int], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(values)
    if fmt == "csv":
        return "\n".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


def _series_route(i: int, j: int, args: argparse.Namespace) -> int:
    if i >= args.order:
        raise OutOfReach(
            f"index {i} is past --order {args.order}; raise --order to at least {i + 1}"
        )
    return column_gf(abs(j), args.order).integer_coefficients()[i]


def _oracle_route(i: int, j: int, args: argparse.Namespace) -> int:
    if i > args.oracle_cap:
        raise OutOfReach(
            f"length {i} is past --oracle-cap {args.oracle_cap}; "
            "raise the cap knowingly, the cost grows exponentially"
        )
    return count_by_height(i, cap=args.oracle_cap).get(j, 0)


# the lambdas look the route functions up by name at call time, so a
# rebound module attribute (a test's fake, a tracer's wrapper) is honoured
ROUTES: dict[str, Callable[[int, int, argparse.Namespace], int]] = {
    "recurrence": lambda i, j, args: build_table(i).entry(i, j),
    "triple_sum": lambda i, j, args: entry_triple_sum(i, j),
    "convolved": lambda i, j, args: entry_convolved(i, j),
    "series": _series_route,
    "oracle": _oracle_route,
}


def _cmd_entry(args: argparse.Namespace) -> tuple[int, str]:
    i, j = args.i, args.j
    if i < 0:
        raise UsageError(f"row index must be >= 0, got {i}")
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    if args.oracle_cap < 0:
        raise UsageError(f"--oracle-cap must be >= 0, got {args.oracle_cap}")
    if args.method != "all":
        return EXIT_OK, str(ROUTES[args.method](i, j, args))

    values: dict[str, int] = {}
    for method, route in ROUTES.items():
        try:
            values[method] = route(i, j, args)
        except OutOfReach as exc:
            _say(f"skipping {method} method ({exc})", sys.stderr)

    detail = first_disagreement([(f"(i={i}, j={j})", values)])
    if detail:
        _say(detail, sys.stderr)
    # one value per line, as csv prints a sequence, unless json was asked for
    fmt = "json" if args.format == "json" else "csv"
    return (EXIT_DISAGREEMENT if detail else EXIT_OK), _emit_sequence(list(values.values()), fmt)


def _cmd_row(args: argparse.Namespace) -> tuple[int, str]:
    if args.i < 0:
        raise UsageError(f"row index must be >= 0, got {args.i}")
    return EXIT_OK, _emit_sequence(build_table(args.i).row(args.i), args.format)


def _cmd_column(args: argparse.Namespace) -> tuple[int, str]:
    if args.terms < 1:
        raise UsageError(f"--terms must be >= 1, got {args.terms}")
    depth = abs(args.j) + args.terms - 1
    return EXIT_OK, _emit_sequence(build_table(depth).column(args.j), args.format)


def _cmd_series(args: argparse.Namespace) -> tuple[int, str]:
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    name = args.name
    if name == "F":
        s = fibonacci_gf(args.order)
    elif name == "C":
        s = catalan_gf(args.order)
    elif name == "B":
        s = motzkin2_gf(args.order)
    else:
        match = re.fullmatch(r"L(-?\d+)", name)
        if not match:
            raise UsageError(f"unknown series {name!r}; expected F, C, B or L<j>")
        s = column_gf(abs(int(match.group(1))), args.order)
    return EXIT_OK, _emit_sequence(s.integer_coefficients(), args.format)


def _cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_i < 1 or args.order < 1:
        raise UsageError("--max-i and --order must be positive")
    if args.max_oracle_n < 0:
        raise UsageError(f"--max-oracle-n must be >= 0, got {args.max_oracle_n}")
    if args.oracle_cap < args.max_oracle_n:
        raise UsageError(
            f"--oracle-cap {args.oracle_cap} is below --max-oracle-n {args.max_oracle_n}"
        )
    results = run_all(
        max_i=args.max_i,
        max_oracle_n=args.max_oracle_n,
        series_order=args.order,
        oracle_cap=args.oracle_cap,
    )
    lines = [f"{r.status:7s} {r.name}" + (f": {r.detail}" if r.detail else "") for r in results]
    failed = [r for r in results if not r.skipped and not r.passed]
    return (EXIT_DISAGREEMENT if failed else EXIT_OK), "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascal-rhombus",
        description="Pascal rhombus entries by five independent exact methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="plain")

    p_entry = sub.add_parser("entry", help="one entry r[i][j]")
    p_entry.add_argument("i", type=int)
    p_entry.add_argument("j", type=int)
    p_entry.add_argument("--method", choices=(*ROUTES, "all"), default="recurrence")
    p_entry.add_argument("--order", type=int, default=30,
                         help="series truncation order for the series method")
    p_entry.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                         help="refuse exhaustive enumeration beyond this length")
    add_format(p_entry)
    p_entry.set_defaults(func=_cmd_entry)

    p_row = sub.add_parser("row", help="one full row of the table")
    p_row.add_argument("i", type=int)
    add_format(p_row)
    p_row.set_defaults(func=_cmd_row)

    p_col = sub.add_parser("column", help="a column of the table, top down")
    p_col.add_argument("j", type=int)
    p_col.add_argument("--terms", type=int, default=10)
    add_format(p_col)
    p_col.set_defaults(func=_cmd_column)

    p_series = sub.add_parser("series", help="coefficients of F, C, B or L<j>")
    p_series.add_argument("name")
    p_series.add_argument("--order", type=int, default=30)
    add_format(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser("check", help="run the full consistency check")
    p_check.add_argument("--max-i", type=int, default=40)
    p_check.add_argument("--max-oracle-n", type=int, default=12)
    p_check.add_argument("--order", type=int, default=30)
    p_check.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # values are printed in full: central entries pass CPython's default
    # 4300-digit int->str limit near row 8300 (the call exists from 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        verdict, text = args.func(args)
    except UsageError as exc:
        _say(f"error: {exc}", sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError, RecursionError) as exc:
        _say(f"error: internal: {exc}", sys.stderr)
        return EXIT_DISAGREEMENT
    _say(text, sys.stdout)
    return verdict


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
