"""Machine-speed reference for the benchmark: a fixed pure-Python
computation that uses no uglov code, run in a fresh interpreter like the
sweeps.  It prints the seconds its computation took.

It does the kind of work the sweeps do (generators of small int tuples,
dict and sort churn), and like a sweep's time its time excludes
interpreter start-up, so it moves with the host's speed, which on a shared
2-vCPU virtual machine drifted by 30% within ten minutes.  Dividing the
sweep time by it cancels most of that drift.  Do not change it: that would
change every ``wall_per_ref``.
"""

import time


def partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def work():
    lengths = {}
    for n in range(30):
        for lam in partitions(n, n):
            lengths[lam] = len(lam)
    return sorted((k, lam) for lam, k in lengths.items())


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
