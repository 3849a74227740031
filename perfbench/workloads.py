"""Seeded request generators, one per workload.

The benchmark, not the program, owns these inputs: a workload turns a seed
into an endless, deterministic stream of *cycles*, each a short list of
requests.  A CLI request is an argv tuple for ``python -m pascal_rhombus``;
a ``lib-entries`` request is an ``(i, j)`` pair for the library server.

Every cycle is a stratified sample of its workload: the size range is cut
into as many strata as the cycle has requests of that kind, each request
takes a size near the middle of its own stratum, and the seed shuffles the
order and draws the remaining parameters.  Runs measure whole cycles and
report medians over cycles.  So every cycle is a repeat of nearly the same
mix of work whatever the seed, which keeps run-to-run spread small enough
to gate on; independent draws let one seed take five small rows and the
next five large ones and swing the per-run figures by 20-40%.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import count
from typing import Iterator

WORKLOADS = ("verify", "deep-rows", "gf-order", "lib-entries")

# a request's size sits within this share of its stratum's width from the middle
JITTER = 0.1

def _strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n sizes in [lo, hi], one near the middle of each of n equal strata."""
    width = (hi - lo) / n
    return [round(lo + width * (k + 0.5 + rng.uniform(-JITTER, JITTER))) for k in range(n)]


def _cycle(workload: str, rng: random.Random) -> list[tuple]:
    if workload == "verify":
        return [("check",)]
    if workload == "deep-rows":
        # three in four requests read one deep row; the fourth reads a column
        cycle = [("row", str(n)) for n in _strata(rng, 800, 2000, 3)]
        (terms,) = _strata(rng, 600, 1500, 1)
        cycle.append(("column", str(rng.randint(0, 40)), "--terms", str(terms)))
    elif workload == "gf-order":
        # three in four requests take the cubic closed-form column route, on
        # six distinct columns of 0..8 (the cost depends on j through the
        # binary powers, not monotonically, by up to a factor of two at
        # order 85); the rest take the quadratic sqrt/reciprocal routes of
        # two of B, C and F.  Eight requests keep a cycle near 4 s, so a run
        # holds enough cycles for a median.
        columns = rng.sample(range(9), 6)
        cycle = [("series", f"L{j}", "--order", str(n))
                 for j, n in zip(columns, _strata(rng, 40, 90, 6))]
        names = rng.sample("BCF", 2)
        cycle += [("series", name, "--order", str(n))
                  for name, n in zip(names, _strata(rng, 150, 300, 2))]
    else:
        # every row index once with an even and once with an odd |j|; |j| is
        # skewed small (about geometric, mean 3) and takes both signs
        cycle = []
        for i in range(20, 101):
            for parity in (0, 1):
                j = 2 * int(rng.expovariate(2 / 3)) + parity
                if j > i:
                    j = parity
                cycle.append((i, -j if rng.random() < 0.5 else j))
    rng.shuffle(cycle)
    return cycle


def cycles(workload: str, seed: int) -> Iterator[list[tuple]]:
    """The endless cycle stream of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    for _ in count():
        yield _cycle(workload, rng)


def lib_warmup(seed: int) -> list[tuple]:
    """The lib-entries cycle the library server answers before the timed phase.

    One cycle asks for every row index with both parities of j, which is all
    the process-global caches of the library need to reach their steady
    state.  Its cost depends on the order in which row indices come (a
    cached prefix that is too short is rebuilt): over seeded orders it
    ranged from 9 to 20 s.  So the row indices come in descending order for
    every seed, which builds each prefix once at its full length (about
    5 s), and only the |j| values and signs follow the seed.
    """
    cycle = _cycle("lib-entries", random.Random(f"lib-entries-warmup:{seed}"))
    cycle.sort(key=lambda q: (-q[0], abs(q[1]) % 2))
    return cycle


def lib_setup_queries() -> list[tuple]:
    """The fixed cold-cache queries whose time counts in lib-entries set-up.

    Rows 40 down to 20 with j = 0 and 1, in a fresh library process: about
    0.7 s of prefix builds, short enough to repeat in several processes and
    report the median, where the full warm-up (about 5 s) runs once.
    """
    return [(i, j) for i in range(40, 19, -1) for j in (0, 1)]


def digest(sent: list) -> str:
    """sha256 of the requests a run sent, in order."""
    return hashlib.sha256(json.dumps(sent).encode()).hexdigest()
