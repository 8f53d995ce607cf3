"""A fixed reference workload that gauges how fast the host runs right now.

The benchmark's host is a shared machine whose speed drifts by tens of
percent within minutes, for every program on it alike.  Every timing the
benchmark reports is therefore taken together with the time of a fixed
piece of work that does not depend on nielsencalc, measured at the same
moment, and is rescaled to a nominal host speed:

    reported = measured * NOMINAL / reference time

``kernel()`` is that fixed work for in-process timings: the kind of
pure-Python work the package does (small-integer loops, fraction-free
big-integer elimination, tuple and dict churn).  For timings of child
processes the reference is a ``python -c pass`` child (see run.py).
"""

from __future__ import annotations

import statistics
import time

# kernel() time on the 2-CPU Xeon host the benchmark was written on, at a
# typical moment; it sets the scale of every rescaled in-process timing
KERNEL_NOMINAL_S = 0.0014

_SEED_MATRIX = [[(7 * i + 3 * j * j + 1) % 19 - 9 for j in range(12)]
                for i in range(12)]


def kernel():
    """Fixed work of about 1.4 ms; returns a checksum."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    # Bareiss elimination: exact divisions, growing integers
    a = [row[:] for row in _SEED_MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    total += a[-1][-1] % 1000003
    seen = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, ()) + (i,)
    return total + len(seen)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def median_kernel(runs: int) -> float:
    """Median seconds of ``runs`` kernel calls."""
    return statistics.median(time_kernel() for _ in range(runs))
