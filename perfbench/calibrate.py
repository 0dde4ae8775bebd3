"""Host-speed calibration for the end-to-end times.

On a shared VM the speed of a vCPU drifts by tens of percent over seconds to
minutes, as neighbours load the host.  Between jobs the benchmark runs a fixed
chunk of pure-Python work of its own, in the style the jobs spend their time
on: exact Gaussian elimination over ``Fraction`` and dict churn.  A job's
time divided by the mean chunk time measured just before and just after it
is the job's cost in chunks, which the drift moves far less than the job's
wall time.  ``run.py`` reports that cost in seconds at a reference speed,
i.e. multiplied by ``REF_CHUNK_S``.

The chunk is fixed and independent of the seed and of ``momentsheaf``, so a
change to the program cannot change the yardstick.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# seconds one chunk takes at the reference speed: the scale of every
# normalised time.  On a shared 2-vCPU VM the chunk took 0.05-0.11 s, and
# about 0.06 s while the host was quiet.
REF_CHUNK_S = 0.06


def _chunk() -> int:
    rng = random.Random(7)
    rows, cols = 22, 30
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    table = {}
    for i in range(20000):
        table[(i * 7919) % 5003] = str(i)
    return rank + len(table)


def chunk_seconds(seconds: float) -> float:
    """Mean wall time of one chunk, over whole chunks filling about ``seconds``."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _chunk()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / n
