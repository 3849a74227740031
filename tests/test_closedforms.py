"""Closed formulas against the table and against each other."""

import random
import sys
from collections import Counter
from threading import Thread

import pytest

from pascal_rhombus import (
    TruncatedSeries,
    binomial,
    build_table,
    cli,
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


TRIPLE_STORES = ("_triple_weight_rows", "_inner_sum_tails")
CONVOLVED_STORES = ("_convolved_weight_rows", "_conv_prefix_cache", "_antidiagonal_tails")


def cold(monkeypatch, *names, kept=None):
    """Empty stores in place of the named ones, with their bound or ``kept``."""
    for name in names:
        store = getattr(closedforms, name)
        monkeypatch.setattr(closedforms, name, type(store)(kept or store.kept))


def exact_count(store):
    """Check that the store counts exactly the values it holds, within its bound."""
    assert store.held == sum(map(len, store.values())) <= store.kept


def stress(query, seeds=range(4)):
    """Run query(seed) in threads, more than cores, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=query, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_lone_cold_entry_sums_only_the_inner_sums_it_needs(monkeypatch):
    asked = []
    inner = closedforms._inner_sum

    def recorded(i, k):
        asked.append((i, k))
        return inner(i, k)

    cold(monkeypatch, "_inner_sum_tails")
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
    cold(monkeypatch, *TRIPLE_STORES)
    assert [entry_triple_sum(*point) for point in points] == warm


def test_inner_sum_cache_stays_within_its_bound(monkeypatch):
    cold(monkeypatch, "_inner_sum_tails")
    tails = closedforms._inner_sum_tails
    # j = 0 and 1 read every S_i(k) of row i; go on until past the bound
    i = summed = 0
    while summed <= tails.kept:
        entry_triple_sum(i, 0)
        exact_count(tails)
        entry_triple_sum(i, 1)
        exact_count(tails)
        summed += i + 1
        i += 1
    assert (0, 0) not in tails and (i - 1, 0) in tails
    # a row the tails let go of, and one they keep, still read right
    for n, row in enumerate(iter_rows(i - 1)):
        if n in (2, i - 1):
            assert [entry_triple_sum(n, j) for j in range(-n, n + 1)] == row
    exact_count(tails)


def filled_from_threads(monkeypatch, entry, stores, kept):
    """Every entry up to i = 40 from 4 threads, each in its own order, on
    empty stores with small bounds; every store then counts exactly."""
    for name, bound in zip(stores, kept):
        cold(monkeypatch, name, kept=bound)
    rows = list(iter_rows(40))
    points = [(i, j) for i in range(41) for j in range(-i, i + 1)]
    wrong = []

    def query(seed):
        shuffled = random.Random(seed).sample(points, len(points))
        wrong.extend(p for p in shuffled if entry(*p) != rows[p[0]][p[0] + p[1]])

    # every thread growing and evicting in every store
    stress(query)
    assert wrong == []
    for name in stores:
        exact_count(getattr(closedforms, name))


def test_inner_sum_tails_filled_from_threads_keep_an_exact_count(monkeypatch):
    filled_from_threads(monkeypatch, entry_triple_sum, TRIPLE_STORES, (40, 60))


def test_convolved_stores_filled_from_threads_keep_an_exact_count(monkeypatch):
    filled_from_threads(monkeypatch, entry_convolved, CONVOLVED_STORES, (40, 2000, 60))


def filled_past_the_bound(monkeypatch, row_of, entry, name):
    """Weights of one route's columns until past their store's bound."""
    cold(monkeypatch, name)
    weights = getattr(closedforms, name)
    # 64 weights of each column, and column 0 grown once more on the way, so
    # that it goes last; go on until past the bound
    for j in range(weights.kept // 64 + 2):
        assert row_of(j, 64)[:2] == (1, j + 2)
        if j == 100:
            assert row_of(0, 65)[64] == binomial(128, 64)
        exact_count(weights)
    assert 1 not in weights and 0 in weights and j in weights
    # columns let go of, and columns kept and continued from their last
    # weight, still read right
    row = list(iter_rows(140))[-1]
    assert [entry(140, j) for j in range(-140, 141)] == row
    exact_count(weights)


def test_triple_weight_cache_stays_within_its_bound(monkeypatch):
    filled_past_the_bound(monkeypatch, closedforms._triple_weight_row, entry_triple_sum,
                          "_triple_weight_rows")


def test_convolved_weight_cache_stays_within_its_bound(monkeypatch):
    filled_past_the_bound(monkeypatch, closedforms._convolved_weight_row, entry_convolved,
                          "_convolved_weight_rows")


def test_lone_cold_convolved_entry_asks_only_for_the_prefixes_it_needs(monkeypatch):
    asked = []

    def uncached(r, count):
        asked.append((r, count))
        return tuple(convolved_fib_series(r, count))

    cold(monkeypatch, "_antidiagonal_tails")
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
    cold(monkeypatch, "_antidiagonal_tails")
    tails = closedforms._antidiagonal_tails
    prefix = closedforms._convolved_prefix
    # a stand-in whose a_r(n) is r, so a tail lists its depths
    monkeypatch.setattr(closedforms, "_convolved_prefix", lambda r, count: (r,) * count)
    # 64 values of one parity of each antidiagonal; go on until past the bound
    for s in range(127, 127 + tails.kept // 64 + 2):
        assert closedforms._antidiagonal(s, s - 126) == tuple(range(s - 126, s + 1, 2))
        exact_count(tails)
    assert (127, 1) not in tails and (s, s % 2) in tails
    # a row read into the full store, its tails kept short and then grown,
    # reads right
    monkeypatch.setattr(closedforms, "_convolved_prefix", prefix)
    assert entry_convolved(30, 30) == 1 and entry_convolved(30, 29) == 30
    assert [entry_convolved(30, j) for j in range(-30, 31)] == list(iter_rows(30))[-1]
    exact_count(tails)


def recorded_prefixes(writes):
    """An empty prefix store, with the usual bound, that lists each depth written."""

    class Recorded(type(closedforms._conv_prefix_cache)):
        def grown(self, r, prefix):
            writes.append((r, len(prefix)))
            return super().grown(r, prefix)

    return Recorded(closedforms._conv_prefix_cache.kept)


def test_convolved_prefix_builds_each_depth_by_one_product_per_length(monkeypatch):
    writes, products = [], []
    product = TruncatedSeries.__mul__

    def counted(a, b):
        products.append(a.order)
        return product(a, b)

    points = [(i, j) for i in range(41) for j in range(-i, i + 1)]
    cold(monkeypatch, "_conv_prefix_cache", "_antidiagonal_tails")
    descending = {point: entry_convolved(*point) for point in reversed(points)}
    cold(monkeypatch, "_antidiagonal_tails")
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", recorded_prefixes(writes))
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


@pytest.mark.parametrize("i, first, second", [(60, 0, 1), (60, 1, 0), (61, 0, -1)])
def test_a_cold_mixed_parity_pair_builds_one_walk(monkeypatch, i, first, second):
    writes = []
    cold(monkeypatch, "_antidiagonal_tails")
    monkeypatch.setattr(closedforms, "_conv_prefix_cache", recorded_prefixes(writes))
    entry_convolved(i, first)
    entry_convolved(i, second)
    # row i reads depths 1 to i + 1, one parity each call; the first call
    # builds the other parity's depths on its way up, long enough for the second
    assert sorted(r for r, _ in writes) == list(range(1, i + 2))


def test_a_cold_sweep_to_the_check_cap_computes_each_weight_and_inner_sum_once(monkeypatch):
    cap = cli.REACH["check --max-i"][1]
    computed, asked = Counter(), Counter()

    class Recorded(type(closedforms._triple_weight_rows)):
        def grown(self, j, weights):
            computed.update((j, m) for m in range(len(self.get(j, ())), len(weights)))
            return super().grown(j, weights)

    def inner_sum(i, k):
        asked[i, k] += 1
        return 1

    cold(monkeypatch, "_inner_sum_tails")
    monkeypatch.setattr(closedforms, "_triple_weight_rows",
                        Recorded(closedforms._triple_weight_rows.kept))
    # the sums are counted, not summed, to keep the sweep fast
    monkeypatch.setattr(closedforms, "_inner_sum", inner_sum)
    for i in range(cap + 1):
        for j in range(-i, i + 1):
            entry_triple_sum(i, j)
    assert asked == Counter((i, k) for i in range(cap + 1) for k in range(i + 1))
    # C(j, 0) = 1 is taken as given, so columns read at m = 0 alone store nothing
    assert computed == Counter((j, m) for j in range(cap - 1) for m in range((cap - j) // 2 + 1))


def test_a_cold_convolved_sweep_to_the_check_cap_computes_each_value_once(monkeypatch):
    cap = cli.REACH["check --max-i"][1]
    weights, values = Counter(), Counter()

    def counted_binomial(n, k):
        weights[n, k] += 1
        return 1

    class Zeros:
        def __getitem__(self, n):
            return 0

    def prefix(r, count):
        values[r, count - 1] += 1
        return Zeros()

    cold(monkeypatch, "_convolved_weight_rows", "_antidiagonal_tails")
    # the weights and prefixes are counted, not computed, to keep the sweep fast
    monkeypatch.setattr(closedforms, "binomial", counted_binomial)
    monkeypatch.setattr(closedforms, "_convolved_prefix", prefix)
    for i in range(cap + 1):
        for j in range(-i, i + 1):
            entry_convolved(i, j)
    # weight C(j + 2m, m) for j + 2m <= cap, and a_r(n) for r + n <= cap + 1
    assert weights == Counter((j + 2 * m, m) for j in range(cap + 1)
                              for m in range((cap - j) // 2 + 1))
    assert values == Counter((r, s - r) for s in range(1, cap + 2) for r in range(1, s + 1))


def test_a_deep_cold_convolved_prefix_is_built_without_recursion(monkeypatch):
    cold(monkeypatch, "_conv_prefix_cache")
    r = 2 * sys.getrecursionlimit()
    assert closedforms._convolved_prefix(r, 2)[:2] == (1, r)


def test_convolved_prefixes_built_from_threads_are_the_series_power(monkeypatch):
    # a bound well below what the requests build, so depths are let go too
    cold(monkeypatch, "_conv_prefix_cache", kept=2000)
    requests = [(r, count) for r in range(1, 41) for count in (1, 20, 40, 70)]
    want = {(r, count): tuple(convolved_fib_series(r, count)) for r, count in requests}
    wrong = []

    def build(seed):
        for r, count in random.Random(seed).sample(requests, len(requests)):
            if closedforms._convolved_prefix(r, count)[:count] != want[r, count]:
                wrong.append((r, count))

    # each thread replacing depths whole
    stress(build)
    assert wrong == []
    exact_count(closedforms._conv_prefix_cache)


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
