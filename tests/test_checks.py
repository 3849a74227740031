"""The consistency-check suites, including proof that they catch faults."""

import errno
import os
import threading

import pytest

from pascal_rhombus import RhombusTable, TruncatedSeries, _fork, checks, iter_rows, run_all
from pascal_rhombus.series import COLUMN_METHODS
from pascal_rhombus.checks import (
    CheckResult,
    check_catalan_binomial,
    check_column_functional_equation,
    check_column_routes,
    check_convolved_fibonacci,
    check_method_agreement,
    check_motzkin2_routes,
    check_oracle_agreement,
    check_symmetry,
    first_disagreement,
)


def corrupt_table(monkeypatch, i=7, j=3):
    """Make every table the suites build carry r[i][j] raised by one."""

    def corrupted(depth):
        rows = list(iter_rows(depth))
        rows[i][j + i] += 1
        return RhombusTable(rows)

    monkeypatch.setattr(checks, "build_table", corrupted)


def bumped(series, k, by=1):
    """The same series with coefficient k raised by ``by``."""
    coeffs = list(series.coeffs)
    coeffs[k] += by
    return TruncatedSeries(tuple(coeffs))


def corrupt_columns(monkeypatch, corrupt):
    """Make every column series the suites build, alone or shared by
    ``run_all``, pass through ``corrupt(j, method, series)``."""
    real = checks.column_gfs

    def corrupted(max_j, order, method="closed_form"):
        return [corrupt(j, method, series) for j, series in enumerate(real(max_j, order, method))]

    monkeypatch.setattr(checks, "column_gfs", corrupted)


def shared_result(name):
    """The result of the suite called ``name`` within a small ``run_all``."""
    return next(r for r in run_all(max_i=6, max_oracle_n=0, series_order=16) if r.name == name)


def test_first_disagreement_names_the_first_failing_point():
    consumed = []

    def points():
        for k in range(5):
            consumed.append(k)
            yield f"x^{k}", {"a": k, "b": -1 if k == 2 else k}

    assert first_disagreement(points()) == "first disagreement at x^2: a=2, b=-1"
    assert consumed == [0, 1, 2]
    assert first_disagreement([("p", {"a": 1, "b": 1}), ("q", {"a": 2})]) is None
    # a point where no route gave a value is a broken suite, not a verdict
    with pytest.raises(ValueError, match=r"at \(i=3, j=1\)$"):
        first_disagreement([("(i=3, j=1)", {})])


def test_run_all_passes_at_reduced_bounds():
    results = run_all(max_i=15, max_oracle_n=6, series_order=16)
    assert [(r.status, r.detail) for r in results] == [("PASS", "")] * 8


def test_status_strings():
    # at n <= 0 the oracle suite runs, on the one empty path, and passes
    results = run_all(max_i=6, max_oracle_n=0, series_order=8)
    assert results[1].name == "oracle-agreement (n <= 0)"
    assert [r.status for r in results] == ["PASS"] * 8


def test_check_result_fields_defaults_and_equality():
    assert CheckResult._fields == ("name", "passed", "detail")
    by_position = CheckResult("suite", False, "detail")
    by_keyword = CheckResult(name="suite", passed=False, detail="detail")
    assert by_position == by_keyword
    assert by_position != CheckResult("suite", False)
    passed = CheckResult("suite", True)
    assert passed.detail == ""
    assert [r.status for r in (passed, by_position)] == ["PASS", "FAIL"]


def test_every_suite_decides_through_first_disagreement(monkeypatch):
    # a suite may decide in run_all's child process, so each call writes one
    # byte to a pipe that both processes hold
    real = checks.first_disagreement
    read_end, write_end = os.pipe()

    def spy(points):
        os.write(write_end, b".")
        return real(points)

    monkeypatch.setattr(checks, "first_disagreement", spy)
    try:
        assert all(r.passed for r in run_all(max_i=6, max_oracle_n=0, series_order=8))
    finally:
        os.close(write_end)
    with open(read_end, "rb") as calls:
        assert len(calls.read()) == 8


def two_cpus(monkeypatch):
    """The CPU probe gives two CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_fork, "_ROOT", os.path.join(os.devnull, "no-cgroups"))  # no CPU quota


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def no_affinity_one_cpu(monkeypatch):
    # where the process's CPUs cannot be asked, the host's count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def fork_fails(monkeypatch):
    two_cpus(monkeypatch)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)


ONE_PROCESS = [
    pytest.param(one_cpu, id="one-cpu"),
    pytest.param(no_affinity_one_cpu, id="one-cpu-count"),
    pytest.param(fork_fails, id="fork-fails"),
]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def suite_pids(monkeypatch):
    """Make every suite run_all calls write its process's pid to a pipe; the
    function returned gives them, by suite name, once run_all is done."""
    read_end, write_end = os.pipe()
    for name in [name for name in checks.__all__ if name.startswith("check_")]:
        def recording(*args, real=getattr(checks, name), name=name, **kwargs):
            os.write(write_end, f"{name} {os.getpid()}\n".encode())
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, name, recording)

    def pids():
        os.close(write_end)
        with open(read_end, "rb") as lines:
            return dict(line.split() for line in lines.read().decode().splitlines())

    return pids


APART = {"check_oracle_agreement", "check_motzkin2_routes", "check_convolved_fibonacci",
         "check_catalan_binomial"}


@needs_fork
def test_run_all_runs_four_suites_in_one_child_given_two_cpus(monkeypatch):
    two_cpus(monkeypatch)
    pids = suite_pids(monkeypatch)
    assert all(r.passed for r in run_all(max_i=6, max_oracle_n=0, series_order=8))
    by_suite = pids()
    assert len(by_suite) == 8
    here = str(os.getpid())
    assert {name for name, pid in by_suite.items() if pid != here} == APART
    assert len({by_suite[name] for name in APART}) == 1


@pytest.mark.parametrize("placement", ONE_PROCESS)
def test_run_all_runs_every_suite_here_without_a_second_cpu(monkeypatch, placement):
    placement(monkeypatch)
    pids = suite_pids(monkeypatch)
    assert all(r.passed for r in run_all(max_i=6, max_oracle_n=0, series_order=8))
    assert set(pids().values()) == {str(os.getpid())}


@needs_fork
def test_run_all_runs_every_suite_here_while_another_thread_runs(monkeypatch):
    # a fork would copy the other thread's locks but not the thread
    two_cpus(monkeypatch)
    pids = suite_pids(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert all(r.passed for r in run_all(max_i=6, max_oracle_n=0, series_order=8))
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert set(pids().values()) == {str(os.getpid())}


@needs_fork
def test_a_child_that_cannot_send_its_results_is_a_child_process_error(monkeypatch):
    # an exception of a class defined in a function cannot be pickled, so
    # the child ends without sending its outcomes
    class Unsendable(Exception):
        pass

    def broken(order):
        raise Unsendable

    two_cpus(monkeypatch)
    monkeypatch.setattr(checks, "check_catalan_binomial", broken)
    with pytest.raises(ChildProcessError, match=r"ended without a result \(exit code 1\)$"):
        run_all(max_i=6, max_oracle_n=0, series_order=8)


@pytest.mark.parametrize("placement", [pytest.param(two_cpus, id="two-cpus", marks=needs_fork),
                                       *ONE_PROCESS])
@pytest.mark.parametrize("first, later", [
    ("check_motzkin2_routes", "check_column_routes"),
    ("check_method_agreement", "check_catalan_binomial"),
], ids=["apart-first", "here-first"])
def test_run_all_raises_for_the_first_raising_suite_in_order(monkeypatch, placement, first, later):
    # the suites run here and apart raise the exception the report's order
    # meets first, wherever each ran
    placement(monkeypatch)
    for name in (first, later):
        def broken(*args, name=name):
            raise ValueError(name)

        monkeypatch.setattr(checks, name, broken)
    with pytest.raises(ValueError, match=f"^{first}$"):
        run_all(max_i=6, max_oracle_n=0, series_order=8)


def one_more_in_each_group(monkeypatch):
    """Corrupt a route of a suite that run_all runs here and one of a suite
    that it runs apart."""
    one_more_in_closed_form_column_3(monkeypatch)
    real = checks.convolved_fib_gould
    monkeypatch.setattr(checks, "convolved_fib_gould", lambda j, r: real(j, r) + ((j, r) == (9, 2)))


@needs_fork
@pytest.mark.parametrize("placement", ONE_PROCESS)
@pytest.mark.parametrize("corrupt", [None, one_more_in_each_group], ids=["sound", "corrupted"])
def test_run_all_reports_the_same_in_one_process(monkeypatch, placement, corrupt):
    if corrupt:
        corrupt(monkeypatch)
    bounds = {"max_i": 12, "max_oracle_n": 6, "series_order": 14}
    two_cpus(monkeypatch)
    apart = run_all(**bounds)
    placement(monkeypatch)
    here = run_all(**bounds)
    assert here == apart
    failed = {r.name: r.detail for r in here if not r.passed}
    assert failed == ({} if corrupt is None else {
        "method-agreement (i <= 12)": "first disagreement at (i=5, j=-3): "
        "recurrence=19, triple_sum=19, convolved=19, series=20",
        "column-functional-equation (j <= 5)": "first disagreement at x^5 of column 3 "
        "(closed_form): lhs=20, rhs=19",
        "column-route-agreement (j <= 6)": "first disagreement at x^5 of column 3: "
        "closed_form=20, functional_equation=19",
        "convolved-fibonacci (j <= 20, r <= 6)": "first disagreement at (j=9, r=2): "
        "binomial=421, series=420, product=420",
    })


def test_method_agreement_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch)
    result = check_method_agreement(max_i=12, series_order=13)
    assert not result.passed
    assert "(i=7, j=3)" in result.detail
    assert "recurrence=" in result.detail


def test_symmetry_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch)
    result = check_symmetry(max_i=12)
    assert not result.passed
    assert "i=7" in result.detail


def test_oracle_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch, i=6, j=-2)
    result = check_oracle_agreement(max_n=8)
    assert not result.passed
    assert "n=6" in result.detail


def test_oracle_runs_at_zero():
    assert check_oracle_agreement(0) == CheckResult("oracle-agreement (n <= 0)", True)


def test_oracle_at_zero_catches_corruption(monkeypatch):
    corrupt_table(monkeypatch, i=0, j=0)
    result = check_oracle_agreement(0)
    assert result == CheckResult(
        "oracle-agreement (n <= 0)", False, "first disagreement at (n=0, j=0): oracle=1, table=2",
    )


def test_oracle_rejects_negative_max_n():
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        check_oracle_agreement(-2)


def test_individual_suites_pass():
    assert check_motzkin2_routes(30).passed
    assert check_column_functional_equation(30).passed
    assert check_column_routes(30).passed
    assert check_convolved_fibonacci().passed
    assert check_catalan_binomial(30).passed


def test_motzkin2_routes_catch_corruption(monkeypatch):
    real = checks.motzkin2_gf

    def corrupted(order, method="closed_form"):
        series = real(order, method)
        return bumped(series, 9) if method == "compositional" else series

    monkeypatch.setattr(checks, "motzkin2_gf", corrupted)
    result = check_motzkin2_routes(20)
    assert result.status == "FAIL"
    assert "x^9" in result.detail
    assert "compositional=" in result.detail


def test_column_functional_equation_catches_corruption(monkeypatch):
    corrupt_columns(monkeypatch, lambda j, method, series: (
        bumped(series, 7) if (j, method) == (2, "functional_equation") else series
    ))
    alone = check_column_functional_equation(16)
    for result in (alone, shared_result(alone.name)):
        assert result.status == "FAIL"
        assert "column 2" in result.detail and "x^7" in result.detail
        assert "functional_equation" in result.detail


def test_column_routes_catch_corruption(monkeypatch):
    corrupt_columns(monkeypatch, lambda j, method, series: (
        bumped(series, 5) if (j, method) == (3, "closed_form") else series
    ))
    alone = check_column_routes(16)
    for result in (alone, shared_result(alone.name)):
        assert result.status == "FAIL"
        assert "column 3" in result.detail and "x^5" in result.detail
        assert "closed_form=" in result.detail and "functional_equation=" in result.detail


@pytest.mark.parametrize("corrupt, detail", [
    pytest.param(
        lambda s: bumped(s, 5, -2 * s.coeffs[5]),
        "first disagreement at x^5 of column 3: closed_form=-19, |closed_form|=19",
        id="negated",
    ),
])
def test_column_routes_catch_agreeing_bad_coefficients(monkeypatch, corrupt, detail):
    # both routes corrupted alike agree, so only the sign check can catch
    # the fault
    corrupt_columns(monkeypatch, lambda j, method, series: corrupt(series) if j == 3 else series)
    alone = check_column_routes(16)
    for result in (alone, shared_result(alone.name)):
        assert result.status == "FAIL"
        assert result.detail == detail


def test_convolved_fibonacci_catches_corruption(monkeypatch):
    real = checks.convolved_fib_gould
    monkeypatch.setattr(
        checks, "convolved_fib_gould",
        lambda j, r: real(j, r) + ((j, r) == (9, 2)),
    )
    result = check_convolved_fibonacci()
    assert result.status == "FAIL"
    assert "(j=9, r=2)" in result.detail
    assert "binomial=" in result.detail


def test_catalan_binomial_catches_corruption(monkeypatch):
    real = checks.binomial
    # binomial(2m + j, m) with m = 4, j = 2
    monkeypatch.setattr(checks, "binomial", lambda n, k: real(n, k) + ((n, k) == (10, 4)))
    result = check_catalan_binomial(16)
    assert result.status == "FAIL"
    assert "j=2" in result.detail and "x^4" in result.detail


def test_suite_stops_at_first_disagreement(monkeypatch):
    real = checks.convolved_fib_gould
    calls = []

    def corrupted(j, r):
        calls.append((j, r))
        return real(j, r) + ((j, r) == (3, 1))

    monkeypatch.setattr(checks, "convolved_fib_gould", corrupted)
    assert not check_convolved_fibonacci().passed
    assert calls == [(0, 1), (1, 1), (2, 1), (3, 1)]


def one_more_in_closed_form_column_3(monkeypatch):
    corrupt_columns(monkeypatch, lambda j, method, series: (
        bumped(series, 5) if (j, method) == (3, "closed_form") else series
    ))


def one_more_in_motzkin2(monkeypatch):
    real = checks.motzkin2_gf
    monkeypatch.setattr(checks, "motzkin2_gf", lambda *args: bumped(real(*args), 4))


@pytest.mark.parametrize("corrupt, expected", [
    pytest.param(
        one_more_in_closed_form_column_3,
        {
            "method-agreement (i <= 12)": "first disagreement at (i=5, j=-3): "
            "recurrence=19, triple_sum=19, convolved=19, series=20",
            "column-route-agreement (j <= 6)": "first disagreement at x^5 of column 3: "
            "closed_form=20, functional_equation=19",
        },
        id="column_gf",
    ),
    pytest.param(
        one_more_in_motzkin2,
        {
            "oracle-agreement (n <= 6)": "first disagreement at closed paths of length n=4: "
            "oracle=16, series=17",
        },
        id="motzkin2_gf",
    ),
])
def test_off_by_one_coefficient_is_a_fail_line(monkeypatch, corrupt, expected):
    corrupt(monkeypatch)
    results = {r.name: r for r in run_all(max_i=12, max_oracle_n=6, series_order=14)}
    assert len(results) == 8
    for name, detail in expected.items():
        assert results[name].status == "FAIL"
        assert results[name].detail == detail


def test_run_all_builds_each_column_route_once(monkeypatch):
    real, plain_compose = checks.column_gfs, TruncatedSeries.compose
    composes, builds = [], []

    def counting_compose(self, inner):
        composes.append(inner)
        return plain_compose(self, inner)

    def spy(max_j, order, method="closed_form"):
        before = len(composes)
        columns = real(max_j, order, method)
        builds.append((method, len(composes) - before))
        return columns

    monkeypatch.setattr(TruncatedSeries, "compose", counting_compose)
    monkeypatch.setattr(checks, "column_gfs", spy)
    assert all(r.passed for r in run_all(max_i=12, max_oracle_n=6, series_order=14))
    # one build per method; the closed form composes C(F^2) once
    assert sorted(builds) == [("closed_form", 1), ("functional_equation", 0)]
    assert {method for method, _ in builds} == set(COLUMN_METHODS)
