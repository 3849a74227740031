"""The exhaustive path oracle: enumeration, counts, recurrence."""

import tracemalloc
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import pytest

from pascal_rhombus import (
    build_table,
    cli,
    count_by_height,
    count_motzkin2,
    iter_rows,
    motzkin2_gf,
    walk_paths,
)
from pascal_rhombus import paths

MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51]        # A001006
GRAND_MOTZKIN_NUMBERS = [1, 1, 3, 7, 19, 51]     # A002426

# the package only counts paths by final height; paths themselves, their
# enumeration and the counts below are references local to these tests
U, D, H, H2 = "U", "D", "H", "H2"
STEP_EXTENT = {U: 1, D: 1, H: 1, H2: 2}
STEP_RISE = {U: 1, D: -1, H: 0, H2: 0}


@dataclass(frozen=True)
class LatticePath:
    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        if not STEP_EXTENT.keys() >= set(self.steps):
            raise ValueError(f"unknown step in {self.steps}")

    @property
    def length(self) -> int:
        return sum(STEP_EXTENT[s] for s in self.steps)

    @property
    def height(self) -> int:
        return sum(STEP_RISE[s] for s in self.steps)

    def is_nonnegative(self) -> bool:
        return all(h >= 0 for h in accumulate(STEP_RISE[s] for s in self.steps))


# the reference enumerator's own guard: the number of paths it lists grows
# about 3.3x per unit of length
LISTED_CAP = 14


def enumerate_grand(n, cap=LISTED_CAP):
    """Every step sequence of total extent n, once each, no sign constraint."""
    if n > cap:
        raise ValueError(f"length {n} exceeds the enumeration cap {cap}")

    def walk(remaining, prefix):
        if remaining == 0:
            yield prefix
            return
        for s in (U, D, H):
            yield from walk(remaining - 1, prefix + (s,))
        if remaining >= 2:
            yield from walk(remaining - 2, prefix + (H2,))

    yield from map(LatticePath, walk(n, ()))


def count_three_step(n, nonnegative):
    """{U, D, H} paths of length n ending at 0, optionally non-negative."""
    return sum(
        1 for p in enumerate_grand(n)
        if H2 not in p.steps and p.height == 0 and (not nonnegative or p.is_nonnegative())
    )


def recurrence_check(n, j):
    """Split paths by their last step: does the count at (n, j) equal the
    counts at (n-1, j-1), (n-1, j), (n-1, j+1) and (n-2, j) combined?"""
    if n < 2:
        raise ValueError(f"the recurrence applies from length 2 on, got {n}")
    above, above2 = count_by_height(n - 1), count_by_height(n - 2)
    expected = sum(above.get(k, 0) for k in (j - 1, j, j + 1)) + above2.get(j, 0)
    return count_by_height(n).get(j, 0) == expected


def test_path_length_counts_long_step_twice():
    assert LatticePath(("U", "H2", "D")).length == 4
    assert LatticePath(()).length == 0


def test_path_height_is_final_height():
    assert LatticePath(("U", "U", "D", "H2")).height == 1
    assert LatticePath(("D", "D")).height == -2


def test_path_nonnegativity_checks_every_prefix():
    assert LatticePath(("U", "D", "H")).is_nonnegative()
    assert not LatticePath(("D", "U")).is_nonnegative()
    assert LatticePath(()).is_nonnegative()


def test_path_rejects_unknown_steps():
    with pytest.raises(ValueError):
        LatticePath(("U", "X"))


def test_enumerate_length_zero_is_empty_path():
    assert [p.steps for p in enumerate_grand(0)] == [()]


def test_enumerate_length_one():
    assert {p.steps for p in enumerate_grand(1)} == {("U",), ("D",), ("H",)}


def test_enumerate_length_two():
    paths = list(enumerate_grand(2))
    assert len(paths) == 10  # 3*3 one-step pairs plus the single H2
    assert len({p.steps for p in paths}) == 10
    assert ("H2",) in {p.steps for p in paths}
    assert all(p.length == 2 for p in paths)


def test_enumeration_cap_guards_blowup():
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_grand(LISTED_CAP + 1))


def test_count_by_height_golden():
    assert count_by_height(0) == {0: 1}
    assert count_by_height(2) == {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1}
    assert count_by_height(3) == {-3: 1, -2: 3, -1: 8, 0: 9, 1: 8, 2: 3, 3: 1}


def test_count_by_height_is_symmetric():
    # swapping U and D is a bijection negating the height
    for n in range(9):
        counts = count_by_height(n)
        assert all(counts[j] == counts[-j] for j in counts)


def test_count_by_height_partitions_all_paths():
    for n in range(8):
        assert sum(count_by_height(n).values()) == len(list(enumerate_grand(n)))


def test_apex_count_is_one():
    for n in range(9):
        assert count_by_height(n)[n] == 1  # the all-U path


def test_count_motzkin2_small():
    assert count_motzkin2(0) == 1
    # HHH, H H2, H2 H, UDH, UHD, HUD
    assert count_motzkin2(3) == 6
    listed = [
        p for p in enumerate_grand(3) if p.is_nonnegative() and p.height == 0
    ]
    assert len(listed) == 6


def test_count_motzkin2_matches_series():
    coeffs = motzkin2_gf(14).integer_coefficients()
    for n in range(14):
        assert count_motzkin2(n) == coeffs[n]


def test_motzkin_numbers():
    assert [count_three_step(n, nonnegative=True) for n in range(7)] == MOTZKIN_NUMBERS


def test_grand_motzkin_numbers():
    assert [count_three_step(n, nonnegative=False) for n in range(6)] == GRAND_MOTZKIN_NUMBERS


def test_recurrence_check_examples():
    assert recurrence_check(2, 0)   # 4 = 1 + 1 + 1 + 1
    assert recurrence_check(3, 3)   # 1 = 1 + 0 + 0 + 0
    with pytest.raises(ValueError):
        recurrence_check(1, 0)


def test_recurrence_check_exhaustive():
    for n in range(2, 11):
        for j in range(-n, n + 1):
            assert recurrence_check(n, j)


def test_counts_match_table_entries():
    table = build_table(13)
    for n in range(14):
        counts = count_by_height(n)
        for j in range(-n, n + 1):
            assert counts.get(j, 0) == table.entry(n, j)


def path_totals(max_n):
    """The number of paths of each length up to max_n: a path of length
    n >= 2 starts with U, D or H before a path of length n - 1, or with H2
    before one of length n - 2."""
    totals = [1, 3]
    while len(totals) <= max_n:
        totals.append(3 * totals[-1] + totals[-2])
    return totals[:max_n + 1]


def assert_walk_matches_the_listed_paths(max_n):
    by_height, closed = walk_paths(max_n)
    assert len(by_height) == len(closed) == max_n + 1
    for n in range(max_n + 1):
        paths = list(enumerate_grand(n))
        assert by_height[n] == dict(Counter(p.height for p in paths))
        assert closed[n] == sum(1 for p in paths if p.height == 0 and p.is_nonnegative())


@pytest.mark.parametrize("max_n", [0, 1, 2, 8])
def test_walk_matches_the_listed_paths(max_n):
    assert_walk_matches_the_listed_paths(max_n)


def test_walk_tallies_each_path_once():
    # to 15, where every length from 11 on is walked in slices: a walk of
    # about 0.6 s
    max_n = 15
    by_height, closed = walk_paths(max_n)
    assert [sum(counts.values()) for counts in by_height] == path_totals(max_n)
    # each part of a length is tallied over the heights it can reach only;
    # a range cut short loses paths from the table's rows
    for n, row in enumerate(iter_rows(max_n)):
        assert by_height[n] == dict(zip(range(-n, n + 1), row))
    assert closed == motzkin2_gf(max_n + 1).integer_coefficients()


def test_walk_in_slices_of_a_few_paths_matches_the_listed_paths(monkeypatch):
    # a level longer than a slice goes on in its four parts, each walked
    # on apart; at slices of 3 paths every length from 3 on is walked in
    # several slices, and their tallies still add up to the listing
    monkeypatch.setattr(paths, "_SLICE", 3)
    longest = []

    def tally(extended, rise, heights, counts):
        longest.append(len(extended))
        return original(extended, rise, heights, counts)

    original = paths._tally
    monkeypatch.setattr(paths, "_tally", tally)
    assert_walk_matches_the_listed_paths(8)
    assert max(longest) == 3


def test_walk_rejects_bad_lengths():
    with pytest.raises(ValueError, match="must be >= 0"):
        walk_paths(-1)


def test_walk_refuses_heights_past_a_byte_at_once(monkeypatch):
    # the byte range is the walk's one limit; the refusal comes before the
    # walk, whose frontier would need about 3.3^n bytes
    def no_walk(frontier, previous, n):
        raise AssertionError("walked before refusing")

    monkeypatch.setattr(paths, "_extensions", no_walk)
    too_long = paths.MAX_LENGTH + 1
    with pytest.raises(ValueError, match=f"past {paths.MAX_LENGTH}"):
        walk_paths(too_long)


def test_walk_refuses_paths_left_out_of_the_tally(capsys, monkeypatch):
    # a part is counted height by height over the heights it can reach; a
    # path tallied anywhere else is not dropped in silence but stops the
    # walk, and the CLI reports it as an internal failure
    table = bytearray(paths._TALLY[1])
    table[paths._ZERO] = 40 + paths._ZERO  # U from height 0 to height 40
    monkeypatch.setitem(paths._TALLY, 1, bytes(table))
    with pytest.raises(ValueError, match=r"^length 3: 1 of the 10 paths of one part left over"):
        walk_paths(4)
    assert cli.main(["entry", "4", "0", "--method", "oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: length 3: 1 of the 10 paths")
    # each slice is checked on its own parts: at slices of 3 paths, the
    # first part walked with a path the table sends to 40 extends the 3
    # paths UHU, DHU and HHU by U, and DHU is that path
    monkeypatch.setattr(paths, "_SLICE", 3)
    with pytest.raises(ValueError, match=r"^length 4: 1 of the 3 paths of one part left over"):
        walk_paths(4)


def test_walk_holds_two_levels_and_one_tally():
    # at its last length the walk holds the paths of the two before it and
    # the tally of one part, as long as the longer of them; a tally kept
    # beside its own rest, or a level made that is never extended, breaks
    # the bound
    max_n = 13
    totals = path_totals(max_n)
    tracemalloc.start()
    try:
        walk_paths(max_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * (2 * totals[max_n - 1] + totals[max_n - 2])


def test_walk_to_16_holds_less_than_a_walk_to_14_held_whole():
    # a walk to 14 that held its levels whole peaked at 11.2 MB; slices
    # bound the walk by a few of them at any length, and a walk to 16 is
    # 11 times as many paths
    tracemalloc.start()
    try:
        by_height, _ = walk_paths(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.2e6
    assert sum(by_height[16].values()) == path_totals(16)[16]
