"""The recurrence: streamed rows, the table, symmetry, self-consistency,
and a deep row split into column halves on two processes."""

import errno
import marshal
import os
import subprocess
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascal_rhombus import (
    RhombusTable, _fork, build_table, column_gf, iter_column, iter_rows, rhombus,
)

GOLDEN_ROWS = [
    [1],
    [1, 1, 1],
    [1, 2, 4, 2, 1],
    [1, 3, 8, 9, 8, 3, 1],
    [1, 4, 13, 22, 29, 22, 13, 4, 1],
    [1, 5, 19, 42, 72, 82, 72, 42, 19, 5, 1],
]


def column(table, j):
    """Entries r[|j|][j], r[|j|+1][j], ..., r[depth][j] down column j."""
    return [table.entry(i, j) for i in range(abs(j), table.depth + 1)]


def test_golden_rows():
    assert list(iter_rows(5)) == GOLDEN_ROWS
    table = build_table(5)
    for i, expected in enumerate(GOLDEN_ROWS):
        assert [table.entry(i, j) for j in range(-i, i + 1)] == expected


def test_depth_zero():
    assert list(iter_rows(0)) == [[1]]
    table = build_table(0)
    assert table.depth == 0
    assert table.entry(0, 0) == 1


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        build_table(-1)
    with pytest.raises(ValueError):
        list(iter_rows(-1))


def test_entry_examples():
    table = build_table(5)
    assert table.entry(4, 0) == 29
    assert table.entry(3, -1) == 8
    assert table.entry(2, 5) == 0
    assert table.entry(0, 0) == 1


def test_entry_row_out_of_range():
    table = build_table(3)
    with pytest.raises(IndexError):
        table.entry(4, 0)
    with pytest.raises(IndexError):
        table.entry(-1, 0)


def test_column_examples():
    table = build_table(5)
    assert column(table, 0) == [1, 1, 4, 9, 29, 82]
    assert column(table, 2) == [1, 3, 13, 42]
    assert column(table, -2) == column(table, 2)


def test_iter_rows_yields_rows_the_caller_owns():
    # wreck every row as soon as it is yielded: the rows after it must not change
    for i, row in enumerate(iter_rows(5)):
        assert row == GOLDEN_ROWS[i]
        row[:] = [99] * (len(row) + 1)


def entry_by_entry(depth):
    """Rows 0..depth, each entry the sum of its four terms looked up one by one."""
    def at(row, i, j):  # r[i][j] from row i, 0 off the triangle
        return row[j + i] if abs(j) <= i else 0

    older, row = [], [1]
    yield row
    for i in range(1, depth + 1):
        older, row = row, [at(row, i - 1, j - 1) + at(row, i - 1, j) + at(row, i - 1, j + 1)
                           + at(older, i - 2, j) for j in range(-i, i + 1)]
        yield row


@pytest.mark.parametrize("depth", [1, 2, 3, 600])
def test_iter_rows_matches_the_recurrence_entry_by_entry(depth):
    count = 0
    for count, (row, expected) in enumerate(zip(iter_rows(depth), entry_by_entry(depth)), 1):
        assert row == expected
    assert count == depth + 1


def test_build_table_keeps_the_streamed_rows():
    table = build_table(50)
    assert table.depth == 50
    for i, row in enumerate(iter_rows(50)):
        assert [table.entry(i, j) for j in range(-i, i + 1)] == row


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        RhombusTable([[1], [1, 1]])
    with pytest.raises(ValueError):
        RhombusTable([])


def test_symmetry_to_depth_50():
    table = build_table(50)
    for i in range(51):
        for j in range(1, i + 1):
            assert table.entry(i, j) == table.entry(i, -j)


def test_every_entry_satisfies_the_recurrence():
    # recompute each interior entry from the two rows above; catches
    # indexing bugs that a symmetric implementation could hide
    table = build_table(50)
    for i in range(2, 51):
        for j in range(-i, i + 1):
            expected = (
                table.entry(i - 1, j - 1)
                + table.entry(i - 1, j)
                + table.entry(i - 1, j + 1)
                + table.entry(i - 2, j)
            )
            assert table.entry(i, j) == expected


def test_columns_match_generating_functions():
    table = build_table(29)
    for j in range(7):
        coeffs = column_gf(j, 30).integer_coefficients()
        assert column(table, j) == coeffs[j:]
        assert column(table, -j) == coeffs[j:]


# on a failure hypothesis may import libcst, whose import warns (see test_properties)
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 150), st.integers(-160, 160))
@example(0, 0)
@example(150, 150)
@example(150, -150)
@example(150, -149)
@example(7, -8)
def test_iter_column_is_the_column_of_the_whole_rows(depth, j):
    expected = [row[j + i] for i, row in enumerate(iter_rows(depth)) if i >= abs(j)]
    assert list(iter_column(j, depth)) == expected


def additions(values):
    """How many additions draining ``values`` makes, counted through rhombus.add."""
    count = 0

    def counted(x, y):
        nonlocal count
        count += 1
        return x + y

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhombus, "add", counted)
        for _ in values:
            pass
    return count


def test_a_column_adds_only_its_cone():
    whole = additions(iter_rows(200))
    assert whole >= 3 * (201 ** 2 - 1)  # three additions an entry of rows 1..200
    assert additions(iter_column(0, 200)) <= 0.55 * whole
    assert additions(iter_column(-199, 200)) <= 10 * 200


def last_row(depth):
    for row in iter_rows(depth):
        pass
    return row


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def cpus(monkeypatch, n):
    """The CPU probe gives ``n`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    monkeypatch.setattr(_fork, "_ROOT", os.path.join(os.devnull, "no-cgroups"))  # no CPU quota


@needs_fork
@pytest.mark.parametrize("ghost", [1, 2, 5])
def test_split_rows_equal_iter_rows_at_every_depth(monkeypatch, ghost):
    # every depth to 3H + 2: blocks that start at the seed, at the edge of the
    # triangle and past the ghost width, and a first block of each length
    cpus(monkeypatch, 2)
    monkeypatch.setattr(rhombus, "_GHOST", ghost)
    monkeypatch.setattr(rhombus, "_SPLIT", 1)
    for depth in range(3 * ghost + 3):
        assert rhombus._row(depth) == last_row(depth), depth


@needs_fork
def test_split_rows_equal_iter_rows_at_the_threshold(monkeypatch):
    cpus(monkeypatch, 2)
    for depth in (rhombus._SPLIT - 1, rhombus._SPLIT, rhombus._SPLIT + 1):
        assert rhombus._row(depth) == last_row(depth), depth


def half_pids(monkeypatch):
    """Make each half of a split row, and each whole row of iter_rows, write
    its kind and its process's pid to a pipe; the function returned gives
    the pairs once the row is done."""
    read_end, write_end = os.pipe()
    for name, kind in (("_half", lambda kwargs: "left" if kwargs["left"] else "right"),
                       ("iter_rows", lambda kwargs: "whole")):
        def recording(*args, real=getattr(rhombus, name), kind=kind, **kwargs):
            os.write(write_end, f"{kind(kwargs)} {os.getpid()}\n".encode())
            return real(*args, **kwargs)

        monkeypatch.setattr(rhombus, name, recording)

    def pids():
        os.close(write_end)
        with open(read_end, "rb") as lines:
            return sorted(tuple(line.split()) for line in lines.read().decode().splitlines())

    return pids


@needs_fork
def test_a_split_row_computes_its_left_half_in_another_process(monkeypatch):
    cpus(monkeypatch, 2)
    pids = half_pids(monkeypatch)
    assert rhombus._row(rhombus._SPLIT) == last_row(rhombus._SPLIT)
    (left, child), (right, here) = pids()
    assert (left, right, here) == ("left", "right", str(os.getpid()))
    assert child != here


@contextmanager
def another_thread(monkeypatch):
    # a fork would copy the other thread's locks but not the thread
    cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        yield
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


@contextmanager
def fork_fails(monkeypatch):
    cpus(monkeypatch, 2)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    yield


@contextmanager
def one_cpu(monkeypatch):
    cpus(monkeypatch, 1)
    yield


@pytest.mark.parametrize("placement", [one_cpu, pytest.param(another_thread, marks=needs_fork),
                                       fork_fails], ids=["one-cpu", "another-thread", "fork-fails"])
def test_a_row_without_a_second_cpu_is_the_last_of_iter_rows_here(monkeypatch, placement):
    pids = half_pids(monkeypatch)
    expected = last_row(rhombus._SPLIT)
    with placement(monkeypatch):
        assert rhombus._row(rhombus._SPLIT) == expected
    assert pids() == [("whole", str(os.getpid()))]


def test_a_row_below_the_threshold_does_not_split(monkeypatch):
    cpus(monkeypatch, 2)
    pids = half_pids(monkeypatch)
    assert rhombus._row(rhombus._SPLIT - 1) == last_row(rhombus._SPLIT - 1)
    assert pids() == [("whole", str(os.getpid()))]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@needs_fork
def test_strips_longer_than_a_pipe_holds_do_not_deadlock():
    # both halves writing a strip longer than the pipe buffers before either
    # reads would hang; the child reads first
    depth, ghost = 1200, 400
    swapped = depth - ghost  # the last swap: row 800, columns 0..399 of it alone
    assert len(marshal.dumps(last_row(swapped)[swapped:swapped + ghost])) > 2**16
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import os\n"
         "from pascal_rhombus import _fork, rhombus\n"
         "os.sched_getaffinity = lambda pid: {0, 1}\n"
         "_fork._ROOT = os.path.join(os.devnull, 'no-cgroups')\n"
         f"rhombus._GHOST = {ghost}\n"
         f"row = rhombus._row({depth})\n"
         "print(sum(row) % 1000003, len(row))\n"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [str(sum(last_row(depth)) % 1000003), str(2 * depth + 1)]
