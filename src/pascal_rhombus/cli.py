"""Command-line interface.

Subcommands: ``entry`` (one value by any method, or all of them), ``row``
and ``column`` (sequences streamed from the recurrence), ``series`` (raw
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
from .rhombus import iter_rows
from .series import catalan_gf, column_gf, fibonacci_gf, motzkin2_gf

FORMATS = ("plain", "json", "csv")

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2

# the largest series --order a command accepts unless --max-order is raised:
# at these orders one request takes about 4-8 s (series L<j>, entry --method
# series; L<j> costs more the closer j is to the order), 5 s (series B or C;
# F is far cheaper) or 1 s (check, which builds each column route once) on
# CPython 3.11, x86-64, and the cost grows faster than the cube of the order
MAX_ORDER = 400
SERIES_MAX_ORDER = 1500
CHECK_MAX_ORDER = 150
# the deepest row that row, column and entry --method recurrence compute
# unless --max-depth is raised: row 3000 takes about 4 s there, and the cost
# grows faster than the cube of the depth (row 4000 takes 13 s)
MAX_DEPTH = 3000


class UsageError(Exception):
    pass


class OutOfReach(UsageError):
    """A route cannot reach the requested entry within its --order, --oracle-cap
    or --max-depth."""


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


def _require_max_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise UsageError(
            f"--order {order} is above --max-order {max_order}; "
            "raise the cap knowingly, the cost grows faster than the cube of the order"
        )


def _require_max_depth(depth: int, args: argparse.Namespace) -> None:
    if depth > args.max_depth:
        raise OutOfReach(
            f"row {depth} is past --max-depth {args.max_depth}; "
            "raise the cap knowingly, the cost grows faster than the cube of the depth"
        )


def _series_route(i: int, j: int, args: argparse.Namespace) -> int:
    if i >= args.order:
        raise OutOfReach(
            f"index {i} is past --order {args.order}; raise --order to at least {i + 1}"
        )
    return column_gf(abs(j), args.order).integer_coefficients()[i]


def _oracle_route(i: int, j: int, args: argparse.Namespace) -> int:
    if i > args.oracle_cap:
        raise OutOfReach(
            f"length {i} is past --oracle-cap {args.oracle_cap}; raise the cap "
            "knowingly, time and memory grow about 3.3x per unit of length"
        )
    return count_by_height(i, cap=args.oracle_cap).get(j, 0)


def _last_row(i: int) -> list[int]:
    for row in iter_rows(i):
        pass
    return row


def _recurrence_route(i: int, j: int, args: argparse.Namespace) -> int:
    _require_max_depth(i, args)
    return _last_row(i)[j + i] if abs(j) <= i else 0


# the routes look the functions they call up by name at call time, so a
# rebound module attribute (a test's fake, a tracer's wrapper) is honoured
ROUTES: dict[str, Callable[[int, int, argparse.Namespace], int]] = {
    "recurrence": _recurrence_route,
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
    if args.method in ("series", "all"):
        _require_max_order(args.order, args.max_order)
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
    _require_max_depth(args.i, args)
    return EXIT_OK, _emit_sequence(_last_row(args.i), args.format)


def _cmd_column(args: argparse.Namespace) -> tuple[int, str]:
    if args.terms < 1:
        raise UsageError(f"--terms must be >= 1, got {args.terms}")
    j = args.j
    depth = abs(j) + args.terms - 1
    _require_max_depth(depth, args)
    rows = enumerate(iter_rows(depth))
    return EXIT_OK, _emit_sequence([row[j + i] for i, row in rows if i >= abs(j)], args.format)


def _cmd_series(args: argparse.Namespace) -> tuple[int, str]:
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    name = args.name
    column = re.fullmatch(r"L(-?\d+)", name)
    if name not in ("F", "C", "B") and not column:
        raise UsageError(f"unknown series {name!r}; expected F, C, B or L<j>")
    max_order = args.max_order
    if max_order is None:
        max_order = MAX_ORDER if column else SERIES_MAX_ORDER
    _require_max_order(args.order, max_order)
    if column:
        s = column_gf(abs(int(column.group(1))), args.order)
    else:
        s = {"F": fibonacci_gf, "C": catalan_gf, "B": motzkin2_gf}[name](args.order)
    return EXIT_OK, _emit_sequence(s.integer_coefficients(), args.format)


def _cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_i < 1:
        raise UsageError(f"--max-i must be >= 1, got {args.max_i}")
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    _require_max_order(args.order, args.max_order)
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

    def add_max_order(p: argparse.ArgumentParser, default: int | None, shown: str = "") -> None:
        p.add_argument("--max-order", type=int, default=default,
                       help=f"refuse a larger --order (default {shown or default}); "
                            "the cost grows steeply with the order")

    def add_oracle_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                       help=f"refuse exhaustive enumeration beyond this length (default "
                            f"{DEFAULT_CAP}, about 1 s and 11 MB); past it time and memory "
                            "grow about 3.3x per unit of length")

    def add_max_depth(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-depth", type=int, default=MAX_DEPTH,
                       help="refuse to compute rows past this one; "
                            "the cost grows steeply with the depth")

    p_entry = sub.add_parser("entry", help="one entry r[i][j]")
    p_entry.add_argument("i", type=int)
    p_entry.add_argument("j", type=int)
    p_entry.add_argument("--method", choices=(*ROUTES, "all"), default="recurrence")
    p_entry.add_argument("--order", type=int, default=30,
                         help="series truncation order for the series method")
    add_max_order(p_entry, MAX_ORDER)
    add_max_depth(p_entry)
    add_oracle_cap(p_entry)
    add_format(p_entry)
    p_entry.set_defaults(func=_cmd_entry)

    p_row = sub.add_parser("row", help="one full row of the table")
    p_row.add_argument("i", type=int)
    add_max_depth(p_row)
    add_format(p_row)
    p_row.set_defaults(func=_cmd_row)

    p_col = sub.add_parser("column", help="a column of the table, top down")
    p_col.add_argument("j", type=int)
    p_col.add_argument("--terms", type=int, default=10)
    add_max_depth(p_col)
    add_format(p_col)
    p_col.set_defaults(func=_cmd_column)

    p_series = sub.add_parser("series", help="coefficients of F, C, B or L<j>")
    p_series.add_argument("name")
    p_series.add_argument("--order", type=int, default=30)
    add_max_order(p_series, None, f"{MAX_ORDER} for L<j>, {SERIES_MAX_ORDER} for F, C and B")
    add_format(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser("check", help="run the full consistency check")
    p_check.add_argument("--max-i", type=int, default=40)
    p_check.add_argument("--max-oracle-n", type=int, default=12)
    p_check.add_argument("--order", type=int, default=30)
    add_max_order(p_check, CHECK_MAX_ORDER)
    add_oracle_cap(p_check)
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
