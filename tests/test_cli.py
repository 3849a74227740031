"""Command-line surface: outputs, formats, exit codes."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from pascal_rhombus import (
    TruncatedSeries, _fork, catalan_gf, checks, cli, closedforms, column_gf, entry_triple_sum,
    iter_rows, motzkin2_gf, paths, rhombus, series,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cap(name):
    """The default cap of a row of the CLI's reach table."""
    return cli.REACH[name][1]


def never(*args, **kwargs):
    raise AssertionError("computed past the cap")


def test_entry_recurrence(capsys):
    code, out, _ = run_cli(capsys, "entry", "5", "0", "--method", "recurrence")
    assert code == 0
    assert out.strip() == "82"


@pytest.mark.parametrize("method", ["recurrence", "triple_sum", "convolved", "series", "oracle"])
def test_entry_every_method(capsys, method):
    code, out, _ = run_cli(capsys, "entry", "4", "2", "--method", method)
    assert code == 0
    assert out.strip() == "13"


def test_entry_all_agreeing(capsys):
    code, out, _ = run_cli(capsys, "entry", "4", "2", "--method", "all")
    assert code == 0
    assert out.split() == ["13"] * 5


def test_entry_all_outside_triangle(capsys):
    code, out, _ = run_cli(capsys, "entry", "2", "5", "--method", "all")
    assert code == 0
    assert out.split() == ["0"] * 5


def test_entry_negative_j(capsys):
    code, out, _ = run_cli(capsys, "entry", "3", "-1")
    assert code == 0
    assert out.strip() == "8"


def test_entry_json_decodes_to_same_value(capsys):
    _, plain, _ = run_cli(capsys, "entry", "5", "0")
    _, as_json, _ = run_cli(capsys, "entry", "5", "0", "--format", "json")
    assert json.loads(as_json) == int(plain)


def test_entry_all_skips_inapplicable_methods(capsys):
    code, out, err = run_cli(capsys, "entry", "35", "0", "--method", "all")
    assert code == 0
    assert len(out.split()) == 4  # the series reads x^35 at order 36; the oracle is skipped
    assert err.startswith("skipping oracle method (length 35 is past --oracle-cap 16;")
    assert len(err.splitlines()) == 1


def test_method_choices_follow_route_table():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["entry"]._actions if a.dest == "method")
    assert list(method.choices) == list(cli.ROUTES) + ["all"]


def test_row(capsys):
    code, out, _ = run_cli(capsys, "row", "3")
    assert code == 0
    assert out.strip() == "1,3,8,9,8,3,1"


def test_column(capsys):
    code, out, _ = run_cli(capsys, "column", "1", "--terms", "8")
    assert code == 0
    assert out.strip() == "1,2,8,22,72,218,691,2158"


def test_column_single_term(capsys):
    code, out, _ = run_cli(capsys, "column", "0", "--terms", "1")
    assert code == 0
    assert out.strip() == "1"


def test_column_negative_index_mirrors(capsys):
    _, positive, _ = run_cli(capsys, "column", "2", "--terms", "6")
    _, negative, _ = run_cli(capsys, "column", "-2", "--terms", "6")
    assert positive == negative


@pytest.mark.parametrize("argv", [
    ["row", "400"], ["column", "5", "--terms", "400"], ["entry", "400", "3"],
], ids=["row", "column", "entry"])
def test_recurrence_commands_hold_two_rows(monkeypatch, argv):
    # traced peak of the whole command: a kept depth-400 table reaches about
    # 14 MiB, two streamed rows and the output stay below 0.6 MiB (a child's
    # ru_maxrss would not do: after fork it can report the parent's size)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert traced_peak(lambda: cli.main(argv)) < 3 * 2**20


def traced_peak(call):
    """The most memory ``call()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_output_is_never_held_whole(monkeypatch, tmp_path):
    # row 1000 prints about 745 kB; made whole, its text was held three
    # times over (each value's text, their join and its encoding), so a
    # quarter of it over the peak of building the rows is far more than
    # streaming needs; both peaks come from one traced run
    build, rows_peak = cli._last_row, []

    def last_row(i):
        row = build(i)
        rows_peak.append(tracemalloc.get_traced_memory()[1])
        return row

    monkeypatch.setattr(cli, "_last_row", last_row)
    target = tmp_path / "row.txt"
    with open(target, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        command_peak = traced_peak(lambda: cli.main(["row", "1000"]))
    text_length = target.stat().st_size
    assert text_length > 600_000
    assert command_peak - rows_peak[0] <= text_length / 4


def as_text(values, fmt):
    """A sequence's output as the whole text it was once built as."""
    if fmt == "json":
        return json.dumps(values) + "\n"
    return ("\n" if fmt == "csv" else ",").join(map(str, values)) + "\n"


def last_row(i):
    for row in iter_rows(i):
        pass
    return row


def column_of(j, terms):
    return [row[j + i] for i, row in enumerate(iter_rows(abs(j) + terms - 1)) if i >= abs(j)]


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("argv, values", [
    (["row", "0"], lambda: last_row(0)),
    (["row", "7"], lambda: last_row(7)),
    (["column", "0", "--terms", "1"], lambda: column_of(0, 1)),
    (["column", "-5", "--terms", "1"], lambda: column_of(-5, 1)),
    (["column", "-3", "--terms", "12"], lambda: column_of(-3, 12)),
    (["column", "4", "--terms", "9"], lambda: column_of(4, 9)),
    (["series", "C", "--order", "1"], lambda: catalan_gf(1).integer_coefficients()),
    (["series", "B", "--order", "25"], lambda: motzkin2_gf(25).integer_coefficients()),
    (["series", "L-2", "--order", "14"], lambda: column_gf(2, 14).integer_coefficients()),
], ids=["row-0", "row-7", "column-0-1", "column-neg5-1", "column-neg3-12", "column-4-9",
        "series-C-1", "series-B-25", "series-L-2-14"])
def test_streamed_sequences_match_the_whole_text(capsys, argv, values, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == as_text(values(), fmt)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_streamed_row_far_past_the_pipe_buffer(fmt):
    # row 800 is about 480 kB, several times what a pipe buffers
    proc = subprocess.run([sys.executable, "-m", "pascal_rhombus", "row", "800", "--format", fmt],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = as_text(last_row(800), fmt).encode()
    assert len(expected) > 2**18
    assert proc.stdout == expected


def test_formats_decode_identically(capsys):
    _, plain, _ = run_cli(capsys, "row", "4")
    _, as_json, _ = run_cli(capsys, "row", "4", "--format", "json")
    _, as_csv, _ = run_cli(capsys, "row", "4", "--format", "csv")
    values = [int(v) for v in plain.strip().split(",")]
    assert json.loads(as_json) == values
    assert [int(v) for v in as_csv.split()] == values


def test_series_named(capsys):
    _, out, _ = run_cli(capsys, "series", "F", "--order", "8")
    assert out.strip() == "0,1,1,2,3,5,8,13"
    _, out, _ = run_cli(capsys, "series", "C", "--order", "6")
    assert out.strip() == "1,1,2,5,14,42"
    _, out, _ = run_cli(capsys, "series", "B", "--order", "6")
    assert out.strip() == "1,1,3,6,16,40"
    _, out, _ = run_cli(capsys, "series", "L2", "--order", "9")
    assert out.strip() == "0,0,1,3,13,42,146,476,1574"


def test_series_negative_column(capsys):
    _, plain, _ = run_cli(capsys, "series", "L2", "--order", "8")
    _, mirrored, _ = run_cli(capsys, "series", "L-2", "--order", "8")
    assert plain == mirrored


def test_series_unknown_name(capsys):
    code, _, err = run_cli(capsys, "series", "Q7")
    assert code == 2
    assert "unknown series" in err


def test_entry_series_order_too_small(capsys):
    # the series method reads x^i at order i + 1, capped by --max-order
    argv = ["entry", "50", "0", "--method", "series"]
    code, _, err = run_cli(capsys, *argv, "--max-order", "50")
    assert code == 2
    assert err.startswith("error: order 51 is above --max-order 50;")
    assert "--order" not in err
    assert run_cli(capsys, *argv, "--max-order", "51")[:2] == (0, f"{entry_triple_sum(50, 0)}\n")


def test_entry_oracle_above_cap(capsys):
    code, _, err = run_cli(capsys, "entry", "17", "0", "--method", "oracle")
    assert code == 2
    assert "cap" in err


def test_entry_negative_row_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "entry", "-3", "0")
    assert code == 2
    assert "error" in err


# each argv ends with the flag out of range and its value; a cap flag is
# checked whether or not the request reads it, and of several out of range
# --max-depth is named first, then --oracle-cap, then --max-order, in
# whatever order they are given
@pytest.mark.parametrize("argv", [
    ["series", "F", "--order", "0"],
    ["entry", "3", "0", "--oracle-cap", "-1"],
    ["check", "--max-oracle-n", "0", "--oracle-cap", "-1"],
    ["entry", "64", "0", "--method", "all", "--oracle-cap", "64"],
    ["check", "--max-oracle-n", "64", "--oracle-cap", "64"],
    ["row", "3", "--max-depth", "-1"],
    ["series", "L1", "--max-order", "-1"],
    ["entry", "3", "0", "--method", "oracle", "--max-order", "-1"],
    ["entry", "5", "0", "--max-order", "-1", "--oracle-cap", "99"],
    ["entry", "5", "0", "--max-order", "-1", "--oracle-cap", "99", "--max-depth", "-1"],
])
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    allowed = {"--order": ">= 1", "--oracle-cap": "0 to 63", "--max-depth": ">= 0",
               "--max-order": ">= 0"}
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[-2]} must be {allowed[argv[-2]]}, got {argv[-1]}\n"


def test_every_default_cap_is_within_its_range():
    # the range rule reads only the cap flags a request gives
    for flag, default in cli.REACH.values():
        largest = cli._CAPS[flag][2]
        assert 0 <= default <= (largest() if largest else default), flag


@pytest.mark.parametrize("argv, order, row", [
    (["series", "L1"], cap("series L<j>") + 1, "series L<j>"),
    (["series", "L1"], 10**6, "series L<j>"),
    (["entry", str(cap("series L<j>")), "0", "--method", "series"], cap("series L<j>") + 1,
     "series L<j>"),
    (["entry", str(cap("series L<j>")), "0", "--method", "all"], cap("series L<j>") + 1,
     "series L<j>"),
    (["check"], cap("check") + 1, "check"),
    (["series", "B"], cap("series F, C, B") + 1, "series F, C, B"),
    (["series", "C"], 10**5, "series F, C, B"),
    (["series", "F"], cap("series F, C, B") + 1, "series F, C, B"),
], ids=["series", "series-1e6", "entry-series", "entry-all", "check", "series-B", "series-C-1e5",
        "series-F"])
def test_order_above_the_cap_is_refused_at_once(capsys, monkeypatch, argv, order, row):
    for module, name in ((series, "column_gf"), (checks, "run_all"), (series, "fibonacci_gf"),
                         (series, "catalan_gf"), (series, "motzkin2_gf")):
        monkeypatch.setattr(module, name, never)
    # entry has no --order: its series method reads x^i at order i + 1
    if argv[0] != "entry":
        argv = [*argv, "--order", str(order)]
    code, out, err = run_cli(capsys, *argv)
    refusal = f"order {order} is above --max-order {cap(row)};"
    if argv[-1] == "all":
        # the series is skipped with a note, and the routes within reach answer
        assert code == 0
        assert out.split() == [str(entry_triple_sum(*map(int, argv[1:3])))] * 2
        assert f"skipping series method ({refusal}" in err
    else:
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {refusal}")


@pytest.mark.parametrize("argv, expected", [
    (["series", "F", "--order", str(cap("series L<j>") + 1)], "0,1,1,2,3"),
    (["series", "C", "--order", str(cap("series L<j>") + 1)], "1,1,2,5,14"),
    (["series", "B", "--order", str(cap("series L<j>") + 1)], "1,1,3,6,16"),
    (["entry", "5", "0", "--max-order", "0"], "82"),
    (["entry", "5", "0", "--method", "triple_sum", "--max-order", "0"], "82"),
    (["entry", "5", "0", "--method", "oracle", "--max-order", "0"], "82"),
], ids=["F", "C", "B", "entry-recurrence", "entry-triple_sum", "entry-oracle"])
def test_the_cap_leaves_other_series_and_routes_alone(capsys, argv, expected):
    # the column series cap does not reach F, C and B, which have their own
    # higher cap, and the other entry routes never read --max-order
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith(expected)


def test_max_order_moves_the_cap(capsys):
    assert run_cli(capsys, "series", "L1", "--order", "8", "--max-order", "8")[:2] == (
        0, "0,1,2,8,22,72,218,691\n"
    )
    code, _, err = run_cli(capsys, "series", "L1", "--order", "9", "--max-order", "8")
    assert code == 2
    assert "--max-order 8" in err
    assert run_cli(capsys, "series", "B", "--order", "6", "--max-order", "6")[:2] == (
        0, "1,1,3,6,16,40\n"
    )
    code, _, err = run_cli(capsys, "series", "B", "--order", "7", "--max-order", "6")
    assert code == 2
    assert "--max-order 6" in err


@pytest.mark.parametrize("argv, depth, row", [
    (["row", str(cap("recurrence") + 1)], cap("recurrence") + 1, "recurrence"),
    (["row", "1000000000"], 10**9, "recurrence"),
    (["column", "-3", "--terms", str(cap("recurrence") - 1)], cap("recurrence") + 1, "recurrence"),
    (["entry", str(cap("recurrence") + 1), "0"], cap("recurrence") + 1, "recurrence"),
    (["entry", "20000", "-7", "--method", "recurrence"], 20000, "recurrence"),
    (["entry", str(cap("triple_sum") + 1), "2", "--method", "triple_sum"], cap("triple_sum") + 1,
     "triple_sum"),
    (["entry", "1000000000", "-3", "--method", "triple_sum"], 10**9, "triple_sum"),
    (["entry", str(cap("convolved") + 1), "2", "--method", "convolved"], cap("convolved") + 1,
     "convolved"),
    (["entry", "5000", "0", "--method", "convolved"], 5000, "convolved"),
    (["check", "--max-i", str(cap("check --max-i") + 1)], cap("check --max-i") + 1,
     "check --max-i"),
    (["check", "--max-i", "100000"], 100000, "check --max-i"),
], ids=["row", "row-1e9", "column", "entry", "entry-recurrence", "entry-triple_sum",
        "entry-triple_sum-1e9", "entry-convolved", "entry-convolved-5000", "check",
        "check-100000"])
def test_depth_above_the_cap_is_refused_at_once(capsys, monkeypatch, argv, depth, row):
    for module, name in ((rhombus, "iter_rows"), (rhombus, "iter_column"),
                         (closedforms, "entry_triple_sum"), (closedforms, "entry_convolved"),
                         (checks, "run_all")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: row {depth} is past --max-depth {cap(row)};")


def test_entry_all_past_every_reach_is_a_usage_error(capsys, monkeypatch):
    for module, name in ((rhombus, "iter_rows"), (rhombus, "iter_column"),
                         (closedforms, "entry_triple_sum"), (closedforms, "entry_convolved"),
                         (series, "column_gf"), (paths, "count_by_height")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(capsys, "entry", "5000", "2", "--method", "all")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert [line.split(" (")[0] for line in lines[:-1]] == [
        f"skipping {method} method" for method in cli.ROUTES
    ]
    assert lines[-1] == "error: every method is past its reach at (i=5000, j=2)"


def test_max_depth_moves_the_cap(capsys, monkeypatch):
    assert run_cli(capsys, "row", "3", "--max-depth", "3")[:2] == (0, "1,3,8,9,8,3,1\n")
    assert run_cli(capsys, "column", "1", "--terms", "3", "--max-depth", "3")[:2] == (0, "1,2,8\n")
    code, _, err = run_cli(capsys, "column", "1", "--terms", "4", "--max-depth", "3")
    assert code == 2
    assert "row 4 is past --max-depth 3" in err
    check = ["check", "--max-oracle-n", "0", "--order", "10", "--max-depth", "8"]
    assert run_cli(capsys, *check, "--max-i", "8")[0] == 0
    code, _, err = run_cli(capsys, *check, "--max-i", "9")
    assert code == 2
    assert err.startswith("error: row 9 is past --max-depth 8;")
    # an explicit --max-depth caps all three row-index routes, and entry
    # --method all skips them past it, as it skips the series past
    # --max-order and the oracle past --oracle-cap
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "all", "--max-depth", "3")
    assert code == 0
    assert out.split() == ["13"] * 2
    assert err.startswith("skipping recurrence method (row 4 is past --max-depth 3;")
    assert "skipping triple_sum method (row 4" in err and "skipping convolved method (row 4" in err
    # and an explicit --max-depth answers past a route's default; the defaults
    # sit where one request takes seconds, so each is lowered to 40 here
    for method in ("recurrence", "triple_sum", "convolved"):
        monkeypatch.setitem(cli.REACH, method, ("--max-depth", 40))
        argv = ["entry", "45", "2", "--method", method]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: row 45 is past --max-depth 40;")
        expected = (0, f"{entry_triple_sum(45, 2)}\n")
        assert run_cli(capsys, *argv, "--max-depth", "45")[:2] == expected


@pytest.mark.parametrize("exc, line", [
    (ValueError("invariant violated"), "invariant violated"),
    (IndexError("list index out of range"), "list index out of range"),
    # no route recurses deeply, but a RecursionError is still an internal failure
    (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
    (MemoryError(), "out of memory"),
], ids=["ValueError", "IndexError", "RecursionError", "MemoryError"])
def test_internal_failure_exits_1(capsys, monkeypatch, exc, line):
    def broken(i, j):
        raise exc

    monkeypatch.setattr(closedforms, "entry_convolved", broken)
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "convolved")
    assert (code, out) == (1, "")
    assert err == f"error: internal: {line}\n"


def test_an_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    # an interrupt (SIGINT) in any route ends the request with one line,
    # not a traceback, and the code a shell gives a process it ends
    def interrupted(i, j):
        raise KeyboardInterrupt

    monkeypatch.setattr(closedforms, "entry_convolved", interrupted)
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "convolved")
    assert (code, out) == (130, "")
    assert err == "error: interrupted\n"


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_an_interrupted_command_ends_by_sigint():
    # run as a command, the process ends by the signal after its one line,
    # so that a calling shell or loop sees an interrupt and stops; the
    # route sends SIGINT to its own process
    proc = run_fresh(
        "import os, signal, sys\n"
        "from pascal_rhombus import cli, closedforms\n"
        "closedforms.entry_convolved = lambda i, j: os.kill(os.getpid(), signal.SIGINT)\n"
        "sys.argv[1:] = ['entry', '4', '2', '--method', 'convolved']\n"
        "cli.run()\n"
    )
    assert proc.returncode == -signal.SIGINT
    assert (proc.stdout, proc.stderr) == ("", "error: interrupted\n")


@pytest.mark.parametrize("argv, length, oracle_cap", [
    (["entry", "17", "0", "--method", "oracle"], 17, cap("oracle")),
    (["check", "--max-oracle-n", "17"], 17, cap("oracle")),
    (["check", "--oracle-cap", "5"], 12, 5),
], ids=["entry", "check", "check-lowered"])
def test_oracle_length_above_the_cap_is_refused_at_once(capsys, monkeypatch, argv, length,
                                                        oracle_cap):
    for module, name in ((paths, "count_by_height"), (checks, "run_all")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: length {length} is past --oracle-cap {oracle_cap}; raise the cap "
                   "knowingly, time grows about 3.3x per unit of length\n")


def test_oracle_cap_past_the_byte_range_is_a_usage_error(capsys, monkeypatch):
    # one byte per path holds heights within +-63 only, so no --oracle-cap
    # above 63 can be served; it is refused before the walk
    monkeypatch.setattr(paths, "count_by_height", never)
    code, out, err = run_cli(
        capsys, "entry", "1200", "0", "--method", "oracle", "--oracle-cap", "1200"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --oracle-cap must be 0 to 63, got 1200\n"


def test_inexact_square_root_is_an_internal_failure(capsys, monkeypatch):
    # a route step that is not integral has no value to compare: check stops
    # with one internal error naming the coefficient
    monkeypatch.setattr(checks, "motzkin2_gf",
                        lambda *args: TruncatedSeries.from_coeffs([1, 1], 4).sqrt())
    code, out, err = run_cli(capsys, "check")
    assert (code, out) == (1, "")
    assert err == "error: internal: coefficient of x^1 of the square root is 1/2, not an integer\n"


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["entry", "3", "0", "--method", "bogus"])
    assert exc.value.code == 2


def test_check_reduced_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--max-i", "12", "--max-oracle-n", "5", "--order", "14"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_check_runs_oracle_at_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--max-i", "8", "--max-oracle-n", "0", "--order", "10"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "PASS    oracle-agreement (n <= 0)"
    assert [line.split()[0] for line in lines] == ["PASS"] * 8


def test_entry_all_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(closedforms, "entry_triple_sum", lambda i, j: 999)
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "all")
    assert code == 1
    assert "999" in out
    assert "disagree" in err and "triple_sum=999" in err


def test_check_reports_failure_and_exits_1(capsys, monkeypatch):
    from pascal_rhombus.checks import CheckResult

    fake = [CheckResult("method-agreement", False, "first disagreement at (i=7, j=3)")]
    monkeypatch.setattr(checks, "run_all", lambda **kwargs: fake)
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert out.startswith("FAIL")
    assert "(i=7, j=3)" in out


SMALL_CHECK = ["check", "--max-i", "8", "--max-oracle-n", "3", "--order", "10"]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def cpus(monkeypatch, n):
    """The CPU probe of checks gives ``n`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    monkeypatch.setattr(_fork, "_ROOT", os.path.join(os.devnull, "no-cgroups"))  # no CPU quota


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@needs_fork
@pytest.mark.parametrize("error, line", [
    (ValueError("no route gave a value at x^3"), "error: internal: no route gave a value at x^3"),
    (MemoryError(), "error: internal: out of memory"),
], ids=["ValueError", "MemoryError"])
def test_a_suite_raising_in_the_child_is_the_same_one_line(capsys, monkeypatch, error, line):
    # catalan-binomial runs in check's child given two CPUs, in the CLI's own
    # process given one; the child records its pid down a pipe
    read_end, write_end = os.pipe()

    def broken(order):
        os.write(write_end, f"{os.getpid()}\n".encode())
        raise error

    monkeypatch.setattr(checks, "check_catalan_binomial", broken)
    reports = []
    for n in (2, 1):
        cpus(monkeypatch, n)
        reports.append(run_cli(capsys, *SMALL_CHECK))
    os.close(write_end)
    with open(read_end) as pids:
        child, here = map(int, pids.read().split())
    assert reports == [(1, "", line + "\n")] * 2
    assert here == os.getpid() != child
    assert gone(child)


@needs_fork
def test_a_killed_child_is_one_internal_line(capsys, monkeypatch):
    cpus(monkeypatch, 2)
    real, test_pid = checks.check_motzkin2_routes, os.getpid()

    def killed(order):
        if os.getpid() != test_pid:  # the child, never the test's own process
            os.kill(os.getpid(), signal.SIGKILL)
        return real(order)

    monkeypatch.setattr(checks, "check_motzkin2_routes", killed)
    code, out, err = run_cli(capsys, *SMALL_CHECK)
    assert (code, out) == (1, "")
    assert err == "error: internal: the suites' child process ended without a result " \
                  "(killed by SIGKILL)\n"


@needs_fork
@pytest.mark.parametrize("to_group", [False, True], ids=["cli-alone", "process-group"])
def test_an_interrupt_to_check_ends_its_child(to_group):
    # SIGINT sent to the CLI's process alone, or to its process group as a
    # terminal sends it: the CLI kills and reaps the child, prints its one
    # line and ends by SIGINT
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c",
         "import os, sys, time\n"
         "from pascal_rhombus import _fork, checks, cli\n"
         "os.sched_getaffinity = lambda pid: {0, 1}\n"
         "_fork._ROOT = os.path.join(os.devnull, 'no-cgroups')\n"
         "def stuck():\n"
         "    print(os.getpid(), flush=True)\n"
         "    time.sleep(30)\n"
         "checks.check_convolved_fibonacci = stuck\n"
         f"sys.argv[1:] = {SMALL_CHECK!r}\n"
         "cli.run()\n"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
    )
    try:
        child = int(proc.stdout.readline())
        if to_group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGINT
    assert (out, err) == ("", "error: interrupted\n")
    assert child != proc.pid and gone(child)


def ended(pid):
    """Whether process ``pid`` is gone or a zombie that nothing reaps yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@needs_fork
@pytest.mark.parametrize("error, ended", [
    (None, "killed by SIGKILL"), (ValueError("invariant violated"), "exit code 1"),
    (MemoryError(), "exit code 1"),
], ids=["SIGKILL", "ValueError", "MemoryError"])
def test_a_row_whose_child_is_lost_is_one_internal_line(capsys, monkeypatch, error, ended):
    cpus(monkeypatch, 2)
    real, test_pid = rhombus._half, os.getpid()

    def lost(depth, other, left):
        if os.getpid() != test_pid:  # the child, never the test's own process
            if error is None:
                os.kill(os.getpid(), signal.SIGKILL)
            raise error
        return real(depth, other, left)

    monkeypatch.setattr(rhombus, "_half", lost)
    code, out, err = run_cli(capsys, "row", str(rhombus._SPLIT))
    line = f"error: internal: the row's child process ended without a result ({ended})\n"
    assert (code, out, err) == (1, "", line)


def catches(pid, signum):
    """Whether process ``pid`` has a handler for ``signum`` (its SigCgt mask)."""
    with open(f"/proc/{pid}/status") as status:
        caught = next(line for line in status if line.startswith("SigCgt:"))
    return bool(int(caught.split()[1], 16) >> (signum - 1) & 1)


def started(argv, record_pid):
    """The CLI run as a command with two CPUs, in a session of its own, and
    the pid its child prints from the function ``record_pid`` names."""
    module, name = record_pid
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c",
         "import os, sys\n"
         f"from pascal_rhombus import _fork, cli, {module}\n"
         "os.sched_getaffinity = lambda pid: {0, 1}\n"
         "_fork._ROOT = os.path.join(os.devnull, 'no-cgroups')\n"
         f"real = {module}.{name}\n"
         "def recording(*args, **kwargs):\n"
         "    if os.getpid() != parent:\n"
         "        print(os.getpid(), flush=True)\n"
         "    return real(*args, **kwargs)\n"
         f"{module}.{name} = recording\n"
         "parent = os.getpid()\n"
         f"sys.argv[1:] = {argv!r}\n"
         "cli.run()\n"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
    )
    return proc, int(proc.stdout.readline())


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("signum, err", [(signal.SIGINT, "error: interrupted\n"),
                                         (signal.SIGTERM, "")], ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("argv, record_pid", [
    (["row", "3000"], ("rhombus", "_half")),
    (SMALL_CHECK, ("checks", "check_oracle_agreement")),
], ids=["row", "check"])
def test_a_signal_to_the_cli_ends_its_child(argv, record_pid, signum, err):
    # the CLI kills and reaps its child, then ends by the signal, after one
    # line for an interrupt and none for SIGTERM
    if record_pid[0] == "checks":  # a walk of about 2 s in the child
        argv = argv + ["--max-oracle-n", "16"]
    proc, child = started(argv, record_pid)
    try:
        if signum == signal.SIGTERM:
            # the CLI takes SIGTERM from just after the fork on
            for _ in range(200):
                if catches(proc.pid, signum):
                    break
                time.sleep(0.01)
        proc.send_signal(signum)
        out, errors = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signum
    assert (out, errors) == ("", err)
    assert child != proc.pid and gone(child)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_row_child_ends_when_its_parent_is_killed():
    # SIGKILL leaves no cleanup to run: the child ends at its next swap, on
    # the end of its pipe
    proc, child = started(["row", "3000"], ("rhombus", "_half"))
    proc.kill()
    proc.communicate()
    for _ in range(200):
        if ended(child):
            break
        time.sleep(0.05)
    assert ended(child)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pascal_rhombus", "entry", "5", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "82"
    assert proc.stderr == ""


def test_closed_pipe_exits_0_quietly():
    # row 800 is about 480 kB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "pascal_rhombus", "row", "800"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(5) == b"1,800"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        before = len(os.listdir("/proc/self/fd"))
        assert cli.main(["row", "3"]) == 0
        assert len(os.listdir("/proc/self/fd")) == before


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


def run_unwritable(argv, fd, kind):
    """The CLI run with its descriptor ``fd`` (1 or 2) unwritable: a pipe
    whose reader has gone before the first write, a descriptor closed before
    start, or a device that is always full.  The other stream is captured."""
    preexec = None
    if kind == "gone-pipe":
        read_end, target = os.pipe()
        os.close(read_end)
    elif kind == "full":
        target = os.open("/dev/full", os.O_WRONLY)
    else:
        target = None
        preexec = lambda: os.close(fd)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    streams["stdout" if fd == 1 else "stderr"] = target
    try:
        return subprocess.run([sys.executable, "-m", "pascal_rhombus", *argv],
                              preexec_fn=preexec, timeout=60, **streams)
    finally:
        if target is not None:
            os.close(target)


@pytest.mark.parametrize("kind", ["gone-pipe", "closed", pytest.param("full", marks=needs_dev_full)])
@pytest.mark.parametrize("argv, code, out", [
    (["entry", "35", "0", "--method", "all"], 0, b"119511225134954688\n" * 4),
    (["entry", "-1", "0"], 2, b""),
    (["series", "Q"], 2, b""),
], ids=["entry-all-skipping", "entry-negative-row", "series-unknown"])
def test_closed_stderr_keeps_the_verdict(argv, code, out, kind):
    proc = run_unwritable(argv, 2, kind)
    assert proc.returncode == code
    assert proc.stdout == out


@pytest.mark.parametrize("kind, code", [
    ("gone-pipe", 0), ("closed", 0), pytest.param("full", 1, marks=needs_dev_full),
])
def test_unwritable_stdout(kind, code):
    # with no reader left the verdict stands; output lost on its way to a
    # reader is a failure, told in one line and no traceback
    proc = run_unwritable(["row", "5"], 1, kind)
    assert proc.returncode == code
    if code:
        assert proc.stderr.startswith(b"error: cannot write the output: ")
        assert proc.stderr.count(b"\n") == 1
    else:
        assert proc.stderr == b""


@needs_dev_full
def test_streamed_row_lost_to_a_full_device_fails_in_one_line():
    # the write fails part way through the values, not on one whole text
    proc = run_unwritable(["row", "800"], 1, "full")
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: cannot write the output: ")
    assert proc.stderr.count(b"\n") == 1


def test_exact_decimals_past_the_digit_limit():
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "pascal_rhombus", "row", "1300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert max(len(v) for v in proc.stdout.split(",")) > 640


def run_fresh(code):
    """``code`` run in a fresh ``python -S`` with the package on its path."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_import_leaves_dataclasses_inspect_and_json_out():
    # every request pays for the modules the CLI imports; json loads only
    # when --format json asks for it, and series of ints need no fractions
    proc = run_fresh(
        "import sys\n"
        "from pascal_rhombus import cli\n"
        "code = cli.main(['series', 'F', '--order', '5', '--format', 'json'])\n"
        "out = {'dataclasses', 'inspect', 'json', 'fractions', 'decimal', 'numbers'}\n"
        "print(sorted(out & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    printed, loaded = proc.stdout.splitlines()
    assert loaded == "[]"
    assert json.loads(printed) == [0, 1, 1, 2, 3]


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["series", "F"], {"series"}),
    (["row", "3"], {"rhombus"}),
    (["column", "0", "--terms", "3"], {"rhombus"}),
    (["entry", "5", "0", "--method", "oracle"], {"paths"}),
    (["entry", "5", "0", "--method", "triple_sum"], {"closedforms", "series"}),
    (["row", str(rhombus._SPLIT)], {"_fork", "rhombus"}),
    (["check", "--max-i", "5", "--max-oracle-n", "3", "--order", "5"],
     {"_fork", "checks", "closedforms", "paths", "rhombus", "series"}),
], ids=["import", "series", "row", "column", "entry-oracle", "entry-triple_sum", "row-split",
        "check"])
def test_a_request_loads_only_the_modules_it_runs(argv, loaded):
    # each request compiles every module it loads: the package alone loads
    # none, and a command only those it runs (closedforms builds on series)
    code = "import sys\nimport pascal_rhombus\n"
    if argv is not None:
        code += f"from pascal_rhombus import cli\nassert cli.main({argv!r}) == 0\n"
        loaded = loaded | {"cli"}
    code += "print(sorted(m for m in sys.modules if m.startswith('pascal_rhombus.')))\n"
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(sorted(f"pascal_rhombus.{m}" for m in loaded))
