"""Closed formulas against the table and against each other."""

import random
import sys
from collections import OrderedDict
from threading import Thread

import pytest

from pascal_rhombus import (
    TruncatedSeries,
    binomial,
    build_table,
    closedforms,
    convolved_fib_gould,
    convolved_fib_product,
    convolved_fib_series,
    entry_convolved,
    entry_triple_sum,
    iter_rows,
)


def entry_triple_sum_reference(i: int, j: int) -> int:
    """The triple sum with the printed loose bound m <= i and all l >= 0, for |j| <= i."""
    j = abs(j)
    return sum(
        binomial(2 * m + j, m) * binomial(l + j + 2 * m, l) * binomial(l, i - j - 2 * m - l)
        for m in range(i + 1)
        for l in range(i - j - 2 * m + 1)
    )


def test_triple_sum_examples():
    assert entry_triple_sum(2, 1) == 2
    assert entry_triple_sum(3, 1) == 8  # terms 2 + 3 + 3 by hand expansion
    assert entry_triple_sum(5, 0) == 82
    assert entry_triple_sum(2, 5) == 0


def test_triple_sum_apex_is_one():
    for i in range(11):
        assert entry_triple_sum(i, i) == 1


def test_triple_sum_negative_j_mirrors():
    for i in range(10):
        for j in range(i + 1):
            assert entry_triple_sum(i, -j) == entry_triple_sum(i, j)


def test_triple_sum_rejects_negative_row():
    with pytest.raises(ValueError):
        entry_triple_sum(-1, 0)


def test_loose_bound_variant_agrees():
    # the extra terms of the printed bound m <= i and of l < ceil(k/2) all vanish
    for i in range(16):
        for j in range(-i, i + 1):
            assert entry_triple_sum_reference(i, j) == entry_triple_sum(i, j)


def test_triple_sum_matches_table():
    table = build_table(25)
    for i in range(26):
        for j in range(-i, i + 1):
            assert entry_triple_sum(i, j) == table.entry(i, j)


def test_triple_sum_deep_matches_recurrence():
    # the term ratios run over long inner sums here, and meet both ends of the row
    for row in iter_rows(600):
        pass
    for j in (0, 1, 2, 3, 299, 300, 598, 599, 600):
        for signed in (j, -j):
            assert entry_triple_sum(600, signed) == row[600 + signed], signed
    assert entry_triple_sum(600, 601) == entry_triple_sum(600, -601) == 0


def fresh_inner_sum_tails(monkeypatch):
    monkeypatch.setattr(closedforms, "_inner_sum_tails", OrderedDict())
    monkeypatch.setattr(closedforms, "_inner_sums_held", 0)


def test_lone_cold_entry_sums_only_the_inner_sums_it_needs(monkeypatch):
    asked = []
    inner = closedforms._inner_sum

    def recorded(i, k):
        asked.append((i, k))
        return inner(i, k)

    fresh_inner_sum_tails(monkeypatch)
    monkeypatch.setattr(closedforms, "_inner_sum", recorded)
    entry_triple_sum(400, 390)
    # k = i - |j| - 2m for every m, in the sum's order
    assert asked == [(400, k) for k in range(10, -1, -2)]
    asked.clear()
    # the same entry, and one further out on its row's tail, ask for nothing
    entry_triple_sum(400, -390)
    entry_triple_sum(400, 392)
    assert asked == []
    # a smaller j of the same parity reads one sum more of the same tail
    entry_triple_sum(400, 388)
    assert asked == [(400, 12)]


def test_entries_after_clearing_the_cache_are_unchanged(monkeypatch):
    points = [(i, j) for i in (0, 1, 7, 30, 120, 300) for j in range(-i - 1, i + 2)]
    warm = [entry_triple_sum(*point) for point in points]
    fresh_inner_sum_tails(monkeypatch)
    closedforms._triple_weights.cache_clear()
    assert [entry_triple_sum(*point) for point in points] == warm


def test_inner_sum_cache_stays_within_its_bound(monkeypatch):
    bound = closedforms._INNER_SUMS_KEPT
    fresh_inner_sum_tails(monkeypatch)

    def held():
        tails = closedforms._inner_sum_tails
        assert closedforms._inner_sums_held == sum(map(len, tails.values())) <= bound
        return tails

    # j = 0 and 1 read every S_i(k) of row i; go on until past the bound
    i = summed = 0
    while summed <= bound:
        entry_triple_sum(i, 0)
        held()
        entry_triple_sum(i, 1)
        held()
        summed += i + 1
        i += 1
    tails = held()
    assert (0, 0) not in tails and (i - 1, 0) in tails
    # a row the tails let go of, and one they keep, still read right
    for n, row in enumerate(iter_rows(i - 1)):
        if n in (2, i - 1):
            assert [entry_triple_sum(n, j) for j in range(-n, n + 1)] == row
    held()


def test_inner_sum_tails_filled_from_threads_keep_an_exact_count(monkeypatch):
    fresh_inner_sum_tails(monkeypatch)
    monkeypatch.setattr(closedforms, "_INNER_SUMS_KEPT", 60)
    rows = list(iter_rows(40))
    points = [(i, j) for i in range(41) for j in range(-i, i + 1)]
    wrong = []

    def query(seed):
        shuffled = random.Random(seed).sample(points, len(points))
        wrong.extend(p for p in shuffled if entry_triple_sum(*p) != rows[p[0]][p[0] + p[1]])

    # more threads than cores, switching often, all growing and evicting tails
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=query, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    held = sum(map(len, closedforms._inner_sum_tails.values()))
    assert closedforms._inner_sums_held == held <= 60


def test_triple_weight_cache_stays_within_its_bound():
    weights, bound = closedforms._triple_weights, closedforms._TRIPLE_WEIGHT_BLOCKS_KEPT
    weights.cache_clear()
    # (j, j) reads block 0 of column j alone; go on until past the bound
    for j in range(bound + 2):
        assert entry_triple_sum(j, j) == 1
    assert weights.cache_info().currsize == weights.cache_parameters()["maxsize"] == bound
    # whole blocks of every column, an evicted one among them, still read right
    row = list(iter_rows(300))[-1]
    assert [entry_triple_sum(300, j) for j in range(-300, 301)] == row


def test_lone_cold_convolved_entry_asks_only_for_the_prefixes_it_needs(monkeypatch):
    asked = []

    def uncached(r, count):
        asked.append((r, count))
        return tuple(convolved_fib_series(r, count))

    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    monkeypatch.setattr(closedforms, "_convolved_prefix", uncached)
    i, j = 40, 7
    entry_convolved(i, j)
    # the (r, count) pairs of the sum over m, in its order
    assert asked == [(j + 2 * m + 1, i - j - 2 * m + 1) for m in range((i - j) // 2 + 1)]
    asked.clear()
    # the same entry, and one further out on its antidiagonal, ask for nothing
    entry_convolved(i, -j)
    entry_convolved(i, j + 2)
    assert asked == []
    # a smaller j of the same parity reads on down the same antidiagonal
    entry_convolved(i, 3)
    assert asked == [(4, 38), (6, 36)]


def test_antidiagonal_tails_stay_within_their_bound(monkeypatch):
    bound = closedforms._ANTIDIAGONALS_KEPT
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    # (i, i) and (i, i - 1) read one value each, of the two parities of
    # antidiagonal i + 1; go on until past the bound
    for i in range(bound // 2 + 1):
        assert entry_convolved(i, i) == 1
        assert entry_convolved(i, i - 1) == i
    tails = closedforms._conv_prefix_cache[closedforms._TAILS]
    assert len(tails) == bound and (1, 1) not in tails
    # row 0, whose tail went first, and a row whose tails are kept but short
    # still read right
    for n, row in enumerate(iter_rows(30)):
        if n in (0, 30):
            assert [entry_convolved(n, j) for j in range(-n, n + 1)] == row


def test_convolved_weight_cache_stays_within_its_bound(monkeypatch):
    weights, bound = closedforms._convolved_weights, closedforms._CONVOLVED_WEIGHT_BLOCKS_KEPT
    weights.cache_clear()
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    # (j, j) reads block 0 of column j alone; go on until past the bound
    for j in range(bound + 2):
        assert entry_convolved(j, j) == 1
    assert weights.cache_info().currsize == weights.cache_parameters()["maxsize"] == bound
    # column 0's block 0, the first let go of, and its block 1 read right
    assert entry_convolved(140, 0) == entry_triple_sum(140, 0)


def test_convolved_prefix_builds_each_depth_by_one_product_per_length(monkeypatch):
    writes, products = [], []

    class Recorded(dict):
        def __setitem__(self, r, prefix):
            writes.append((r, len(prefix)))
            super().__setitem__(r, prefix)

    product = TruncatedSeries.__mul__

    def counted(a, b):
        products.append(a.order)
        return product(a, b)

    points = [(i, j) for i in range(41) for j in range(-i, i + 1)]
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    descending = {point: entry_convolved(*point) for point in reversed(points)}
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", Recorded())
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    ascending = {point: entry_convolved(*point) for point in points}
    assert ascending == descending
    # depth r reads up to 42 - r coefficients: each depth is written at 32,
    # and once more, at 64, for r <= 9, not at each new length; depth 1 is a
    # reciprocal, every deeper depth one product A_r = A_(r-1) A_1 a length,
    # where a binary power would take about 2 log2(r)
    built = [(r, 32) for r in range(1, 42)] + [(r, 64) for r in range(1, 10)]
    assert sorted(writes) == sorted(built)
    assert sorted(products) == [32] * 40 + [64] * 8


def test_a_deep_cold_convolved_prefix_is_built_without_recursion(monkeypatch):
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    r = 2 * sys.getrecursionlimit()
    assert closedforms._convolved_prefix(r, 2)[:2] == (1, r)


def test_convolved_prefixes_built_from_threads_are_the_series_power(monkeypatch):
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", {})
    requests = [(r, count) for r in range(1, 41) for count in (1, 20, 40, 70)]
    want = {(r, count): tuple(convolved_fib_series(r, count)) for r, count in requests}
    wrong = []

    def build(seed):
        for r, count in random.Random(seed).sample(requests, len(requests)):
            if closedforms._convolved_prefix(r, count)[:count] != want[r, count]:
                wrong.append((r, count))

    # more threads than cores, switching often, each replacing depths whole
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=build, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_convolved_series_classical_case():
    assert convolved_fib_series(1, 8) == [1, 1, 2, 3, 5, 8, 13, 21]


def test_convolved_series_r2():
    assert convolved_fib_series(2, 5) == [1, 2, 5, 10, 20]


def test_convolved_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        convolved_fib_series(0, 5)
    with pytest.raises(ValueError):
        convolved_fib_series(2, 0)


def test_gould_examples():
    assert convolved_fib_gould(2, 2) == 5  # terms 3 + 2
    for r in range(1, 9):
        assert convolved_fib_gould(0, r) == 1
    assert convolved_fib_gould(4, 1) == 5


def test_product_examples():
    # F1*F3 + F2*F2 + F3*F1 = 2 + 1 + 2
    assert convolved_fib_product(2, 2) == 5
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for m in range(11):
        assert convolved_fib_product(m, 1) == fib[m]
    assert convolved_fib_product(0, 3) == 1


def test_three_convolved_forms_agree():
    for r in range(1, 7):
        series = convolved_fib_series(r, 21)
        for j in range(21):
            assert convolved_fib_gould(j, r) == series[j]
    for r in range(1, 5):
        series = convolved_fib_series(r, 13)
        for j in range(13):
            assert convolved_fib_product(j, r) == series[j]


def test_entry_convolved_examples():
    assert entry_convolved(3, 1) == 8  # 1*5 + 3*1
    assert entry_convolved(2, 0) == 4
    assert entry_convolved(0, 0) == 1
    assert entry_convolved(2, 5) == 0


def test_entry_convolved_matches_table():
    table = build_table(25)
    for i in range(26):
        for j in range(-i, i + 1):
            assert entry_convolved(i, j) == table.entry(i, j)


def test_entry_convolved_rejects_negative_row():
    with pytest.raises(ValueError):
        entry_convolved(-2, 0)
