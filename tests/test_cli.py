"""Command-line surface: outputs, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from pascal_rhombus import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert len(out.split()) == 3  # series (order 30) and oracle (cap 14) skipped
    assert "skipping series" in err and "skipping oracle" in err
    assert "--order" in err and "cap" in err


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
    code, _, err = run_cli(capsys, "entry", "50", "0", "--method", "series")
    assert code == 2
    assert "--order" in err


def test_entry_oracle_above_cap(capsys):
    code, _, err = run_cli(capsys, "entry", "15", "0", "--method", "oracle")
    assert code == 2
    assert "cap" in err


def test_entry_negative_row_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "entry", "-3", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["series", "F", "--order", "0"],
    ["entry", "3", "0", "--order", "0"],
    ["entry", "3", "0", "--oracle-cap", "-1"],
    ["check", "--oracle-cap", "5"],
    ["check", "--max-oracle-n", "0", "--oracle-cap", "-1"],
])
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_internal_failure_exits_1(capsys, monkeypatch):
    def broken(i, j):
        raise ValueError("invariant violated")

    monkeypatch.setattr(cli, "entry_convolved", broken)
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "convolved")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: internal: invariant violated"


def test_recursion_limit_is_an_internal_error(capsys):
    # the oracle walker recurses once per step, past the default limit of 1000
    code, out, err = run_cli(
        capsys, "entry", "1200", "0", "--method", "oracle", "--oracle-cap", "1200"
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal:")


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


def test_check_skips_oracle_at_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--max-i", "8", "--max-oracle-n", "0", "--order", "10"
    )
    assert code == 0
    assert any(line.startswith("SKIPPED oracle") for line in out.splitlines())


def test_entry_all_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "entry_triple_sum", lambda i, j: 999)
    code, out, err = run_cli(capsys, "entry", "4", "2", "--method", "all")
    assert code == 1
    assert "999" in out
    assert "disagree" in err and "triple_sum=999" in err


def test_check_reports_failure_and_exits_1(capsys, monkeypatch):
    from pascal_rhombus.checks import CheckResult

    fake = [CheckResult("method-agreement", False, "first disagreement at (i=7, j=3)")]
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: fake)
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert out.startswith("FAIL")
    assert "(i=7, j=3)" in out


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


@pytest.mark.parametrize("argv, code, out", [
    (["entry", "35", "0", "--method", "all"], 0, b"119511225134954688\n" * 3),
    (["entry", "-1", "0"], 2, b""),
    (["series", "Q"], 2, b""),
], ids=["entry-all-skipping", "entry-negative-row", "series-unknown"])
def test_closed_stderr_keeps_the_verdict(argv, code, out):
    # stderr is a pipe whose reader has gone before the first message
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pascal_rhombus", *argv],
            stdout=subprocess.PIPE,
            stderr=write_end,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == out


def test_exact_decimals_past_the_digit_limit():
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "pascal_rhombus", "row", "1300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert max(len(v) for v in proc.stdout.split(",")) > 640
