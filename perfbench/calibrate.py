"""Fixed reference work that measures how fast the host runs Python just now.

Usage: python3 perfbench/calibrate.py

The work uses nothing from pascal_rhombus and never changes, so its time
moves only with the host.  On a shared host it does move: in slow spells
that last from seconds to minutes, every timing rises by 30-50%, CPU time as
much as wall time.  run.py runs this work between requests, in the same kind
of process as the requests (a fresh interpreter for a CLI request, the warm
library process for lib-entries), and scales the run's timings by how long
the work took (see run.py, ``speed_factor``).

The mix follows what the program spends its time on: exact Fraction sums,
a triangle of growing Python integers built row by row, and a plain
integer loop.
"""


def work() -> int:
    """Do the fixed work; a checksum of its results."""
    from fractions import Fraction

    harmonic = Fraction(0)
    for k in range(1, 900):
        harmonic += Fraction(1, k)
    row = [1, 1, 1]
    for _ in range(300):
        nxt = [0] * (len(row) + 2)
        for k, value in enumerate(row):
            nxt[k] += value
            nxt[k + 1] += value
            nxt[k + 2] += value
        row = nxt
    x = 0
    for k in range(150000):
        x = (x * 31 + k) % 1000003
    return (harmonic.denominator + sum(row) + x) % 1000000007


if __name__ == "__main__":
    work()
