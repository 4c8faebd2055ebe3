"""The host's speed, sampled between jobs, and times scaled to a fixed speed.

On a shared 2-vCPU host (Intel Xeon, 2.0 GHz) the speed of the same code
swings from minute to minute: a fixed pure-Python loop ran anywhere between
0.26 s and 0.46 s, with no CPU time stolen.  Raw job times therefore move with the
host's load as much as with the program.  The worker times one fixed
sample of pure-Python work before every job and after the last one.  A job's
latency is scaled by REFERENCE_S over the median of the samples around it,
so the benchmark reports seconds at the reference speed: the speed at which
one sample takes REFERENCE_S.  A change to the program moves the jobs and
not the samples, so it still shows in full.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# One sample takes about this long on a 2.0 GHz Xeon under Python 3.11.
REFERENCE_S = 0.001
# A job's speed is the median of this many samples before it and as many after.
WINDOW = 4

_TABLE: dict[int, int] = {}
_ROWS = tuple(range(7))


def _search(used: int, depth: int) -> int:
    if depth == 0:
        return 1
    total = 0
    for row in _ROWS:
        if not used & (1 << row):
            total += _search(used | (1 << row), depth - 1)
    return total


def _work() -> int:
    """Integer arithmetic with dict stores, then a recursive search over
    bitmasks, the two kinds of work the library does most.  Neither part
    allocates an object the garbage collector tracks, so the size of the
    program's heap cannot make a sample slower."""
    total = 0
    for i in range(3000):
        total = (total + i * i) & 0xFFFF
        _TABLE[i & 63] = total
    return total + _search(0, 4)


def sample() -> float:
    """Seconds one fixed piece of work takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(latencies: list[float], samples: list[float]) -> list[float]:
    """Latencies of one pass at the reference speed.  samples[i] was taken
    just before job i, and samples[-1] after the last job."""
    assert len(samples) == len(latencies) + 1
    scaled = []
    for i, latency in enumerate(latencies):
        around = samples[max(0, i - WINDOW + 1): i + WINDOW + 1]
        scaled.append(latency * REFERENCE_S / statistics.median(around))
    return scaled
