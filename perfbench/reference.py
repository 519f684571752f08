"""A fixed reference program, timed alongside every iteration.

On the 2-vCPU x86 virtual machine this benchmark was tuned on, the
speed a process gets drifts by 10-30% from one minute to the next, for
every process alike and for short processes most.  run.py starts this
script before and after each workload iteration and reports the
workload's wall and CPU time as multiples of this script's: a ratio
that cancels most of that drift, while any change to so3inv still moves
it in full, since nothing here depends on so3inv.  The script imitates
a so3inv process: a fresh interpreter that imports what so3inv.cli
imports (mpmath included), then exact Fraction series products (the
series layer) and tuple-of-int vector sums (the cyclotomic layer).
Never change it: that would move every ratio.
"""

import argparse  # noqa: F401  (the imports so3inv.cli makes)
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
from fractions import Fraction

import mpmath  # noqa: F401


def work(n: int = 48, K: int = 101, rounds: int = 12000):
    a = [Fraction(1, k + 1) for k in range(n)]
    b = [Fraction((-1) ** k, 2 * k + 3) for k in range(n)]
    series = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            series[i + j] += a[i] * b[j]
    v = tuple(range(1, K))
    acc = tuple([0] * (K - 1))
    for r in range(rounds):
        acc = tuple(x + y * (r % 7) for x, y in zip(acc, v))
    return series[-1], acc[-1]


if __name__ == "__main__":
    work()
