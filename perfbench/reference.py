"""Reference values and exact output checks.

Everything here is computed by the benchmark itself from the definitions;
nothing is imported from the package under test.  A check returns None
when the output is exactly right and a one-line reason otherwise.
"""

from __future__ import annotations

from typing import Iterator

# the eight suites `check` reports, in order
CHECK_SUITES = (
    "method-agreement",
    "oracle-agreement",
    "motzkin2-route-agreement",
    "column-functional-equation",
    "column-route-agreement",
    "convolved-fibonacci",
    "catalan-binomial-identity",
    "symmetry",
)


def iter_rows(depth: int) -> Iterator[list[int]]:
    """Rows 0..depth of the rhombus by the plain two-row recurrence

    r[n][j] = r[n-1][j-1] + r[n-1][j] + r[n-1][j+1] + r[n-2][j];
    row n lists j = -n..n and only rows n-1 and n-2 are kept.
    """
    older: list[int] = []
    row = [1]
    yield row
    for n in range(1, depth + 1):
        p = [0, 0] + row + [0, 0]            # p[t] = r[n-1][t - n - 1]
        q = [0, 0, 0] + older + [0, 0, 0]    # q[t] = r[n-2][t - n - 1]
        older, row = row, [a + b + c + d for a, b, c, d in zip(p, p[1:], p[2:], q[1:])]
        yield row


def row_sums(depth: int) -> list[int]:
    """s_n, the sum of row n, from s_n = 3 s_{n-1} + s_{n-2}, s_0 = 1, s_1 = 3."""
    sums = [1, 3]
    while len(sums) <= depth:
        sums.append(3 * sums[-1] + sums[-2])
    return sums[: depth + 1]


def fibonacci(order: int) -> list[int]:
    """Coefficients of x / (1 - x - x^2): 0, 1, 1, 2, 3, 5, ..."""
    out = [0, 1]
    while len(out) < order:
        out.append(out[-1] + out[-2])
    return out[:order]


def catalan(order: int) -> list[int]:
    """Catalan numbers 1, 1, 2, 5, 14, ... by C_{n+1} = C_n 2(2n+1)/(n+2)."""
    out = [1]
    for n in range(order - 1):
        out.append(out[-1] * 2 * (2 * n + 1) // (n + 2))
    return out


def motzkin2(order: int) -> list[int]:
    """Non-negative paths over U, D, H, H2 from height 0 back to 0, by length.

    Counted by dynamic programming over (length, height); independent of
    the generating-function routes the program uses for B.
    """
    # ways[n][h]: non-negative paths of length n ending at height h
    ways: list[list[int]] = []
    for n in range(order):
        cur = [0] * (n + 1)
        if n == 0:
            cur[0] = 1
        else:
            prev = ways[n - 1]
            for h, v in enumerate(prev):
                if v:
                    cur[h] += v          # H
                    cur[h + 1] += v      # U
                    if h:
                        cur[h - 1] += v  # D
            if n >= 2:
                for h, v in enumerate(ways[n - 2]):
                    cur[h] += v          # H2
        ways.append(cur)
    return [w[0] for w in ways]


class Table:
    """The columns and rows that a set of requests needs, from one sweep."""

    def __init__(self, depth: int, rows=(), columns=()):
        want_rows = set(rows)
        self.rows: dict[int, list[int]] = {}
        self.columns: dict[int, list[int]] = {j: [] for j in columns}
        for n, row in enumerate(iter_rows(depth)):
            if n in want_rows:
                self.rows[n] = row
            for j, col in self.columns.items():
                if abs(j) <= n:
                    col.append(row[j + n])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j + i] if abs(j) <= i else 0


def _plain(values) -> str:
    return ",".join(map(str, values)) + "\n"


def check_row(n: int, out: str, table: Table, sums: list[int]) -> str | None:
    tokens = out.rstrip("\n").split(",")
    if len(tokens) != 2 * n + 1:
        return f"row {n}: {len(tokens)} entries, want {2 * n + 1}"
    if tokens != tokens[::-1]:
        return f"row {n} is not palindromic"
    try:
        total = sum(int(t) for t in tokens)
    except ValueError:
        return f"row {n}: non-integer entry"
    if total != sums[n]:
        return f"row {n}: sum {total} breaks s_n = 3 s_(n-1) + s_(n-2)"
    if out != _plain(table.rows[n]):
        return f"row {n} differs from the two-row recurrence"
    return None


def check_sequence(label: str, out: str, want: list[int]) -> str | None:
    if out != _plain(want):
        return f"{label} differs from the reference"
    return None


def check_report(out: str) -> str | None:
    """`check` output: eight lines, PASS for each suite, in order."""
    lines = out.splitlines()
    if len(lines) != len(CHECK_SUITES):
        return f"check printed {len(lines)} lines, want {len(CHECK_SUITES)}"
    for line, suite in zip(lines, CHECK_SUITES):
        status, _, rest = line.partition(" ")
        if status != "PASS" or not rest.strip().startswith(suite):
            return f"check line {line!r} is not a PASS for {suite}"
    return None


def check_entry(i: int, j: int, triple: str, convolved: str, table: Table) -> str | None:
    want = str(table.entry(i, j))
    if triple != want or convolved != want:
        return f"entry ({i}, {j}): triple_sum={triple} convolved={convolved} reference={want}"
    return None


def check_all(workload: str, done: list[tuple]) -> list[str | None]:
    """Verdict for each ``(request, output)`` in ``done``, in order.

    CLI outputs are stdout strings; a lib-entries output is the pair of
    decimal strings the library server returned.  One recurrence sweep
    serves all table lookups of the run.
    """
    if workload == "verify":
        return [check_report(out) for _, out in done]
    if workload == "lib-entries":
        depth = max((i for (i, _), _ in done), default=0)
        table = Table(depth, rows=range(depth + 1))
        return [check_entry(i, j, a, b, table) for (i, j), (a, b) in done]

    rows: set[int] = set()
    columns: dict[int, int] = {}     # column j -> deepest row needed
    others: list[tuple[str, int]] = []
    for req, _ in done:
        if req[0] == "row":
            rows.add(int(req[1]))
        elif req[0] == "column":
            j = int(req[1])
            columns[j] = max(columns.get(j, 0), abs(j) + int(req[3]) - 1)
        elif req[1].startswith("L"):
            j = abs(int(req[1][1:]))
            columns[j] = max(columns.get(j, 0), int(req[3]) - 1)
        else:
            others.append((req[1], int(req[3])))
    depth = max([*rows, *columns.values(), 0])
    table = Table(depth, rows=rows, columns=columns)
    sums = row_sums(depth)
    named = {"F": fibonacci, "C": catalan, "B": motzkin2}
    longest = {name: max((o for n, o in others if n == name), default=0) for name in named}
    series = {name: named[name](o) for name, o in longest.items() if o}

    verdicts = []
    for req, out in done:
        if req[0] == "row":
            verdicts.append(check_row(int(req[1]), out, table, sums))
        elif req[0] == "column":
            j, terms = int(req[1]), int(req[3])
            verdicts.append(check_sequence(" ".join(req), out, table.columns[j][:terms]))
        elif req[1].startswith("L"):
            j, order = abs(int(req[1][1:])), int(req[3])
            want = ([0] * j + table.columns[j])[:order]
            verdicts.append(check_sequence(" ".join(req), out, want))
        else:
            verdicts.append(check_sequence(" ".join(req), out, series[req[1]][: int(req[3])]))
    return verdicts
