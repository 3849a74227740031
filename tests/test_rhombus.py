"""The recurrence: streamed rows, the table, symmetry, self-consistency."""

import pytest

from pascal_rhombus import RhombusTable, build_table, column_gf, iter_rows

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
