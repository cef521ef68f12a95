"""Host-speed probe for run.py: a fixed computation that uses no ipfe code.

Usage: python3 perfbench/calibrate.py

For every line read from standard input it writes fresh 84-MB arrays,
which the kernel maps page by page, and prints the seconds that took.
run.py keeps one probe process per run and asks it for a sample before
the first operation and after each one; the probe runs in its own process
so that its arrays do not count in the benchmark's ``peak_rss_mb``.
"""

import sys
import time

import numpy as np

ROUNDS = 20
ELEMENTS = 5 << 20


def sample() -> float:
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        a = np.empty(ELEMENTS, complex)
        a.fill(1.0)
        a *= 1j
        del a
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(sample()), flush=True)
