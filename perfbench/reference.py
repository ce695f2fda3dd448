"""A fixed small exact-rational computation that measures the host's current speed.

It uses only the standard library, never svmpath, so a change to the program
cannot change its cost. While a timed CLI invocation runs, `run.py` times
`probe` every few milliseconds on a thread of its own, pinned to the same
CPU as the invocation, and divides the invocation's time by the mean probe
time. That takes out the drift in speed of a shared host, which moves both
alike. The mean, not the median, because a probe that the host stalls takes
longer just as the invocation does. Like svmpath, the probe spends its time
in `fractions.Fraction` arithmetic: Gauss-Jordan elimination on a fixed
6 x 6 rational system.
"""

from fractions import Fraction
from time import perf_counter

N = 6


def system(n: int) -> list:
    """A Hilbert matrix plus a rational diagonal, with a rational right-hand side."""
    return [
        [Fraction(1, i + j + 1) + (Fraction(i + 2, 3) if i == j else 0) for j in range(n)]
        + [Fraction(i * i - 3, 7)]
        for i in range(n)
    ]


def solve(rows: list) -> list:
    a = [list(r) for r in rows]
    n = len(a)
    for c in range(n):
        pivot = [x / a[c][c] for x in a[c]]
        a[c] = pivot
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], pivot)]
    return [a[i][n] for i in range(n)]


ROWS = system(N)


def probe() -> float:
    """Seconds one solve of the fixed system takes now."""
    start = perf_counter()
    solve(ROWS)
    return perf_counter() - start
