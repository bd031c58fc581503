"""Machine-speed reference for the timings.

On a shared machine each CPU slows down, by up to about 2x, whenever other
load lands on it, in windows of seconds to minutes -- longer than a run.
So every job is bracketed by a few runs of a short fixed kernel of exact
rational arithmetic (stdlib only, independent of ultranorm), and the
job's time is reported in *reference seconds*: measured seconds times
``REFERENCE_S / kernel seconds``, i.e. the time it would take on a CPU
where the kernel takes ``REFERENCE_S`` (about an undisturbed CPU of the
2-vCPU x86 machine the bounds were set on).  A change to ultranorm moves
reference seconds exactly as it moves real seconds.

Before a stretch of measured work the process also moves itself to the
allowed CPU where the kernel currently runs fastest, then widens its
affinity back to every allowed CPU: a single-threaded job stays where it
was put, while a program that starts threads or processes of its own can
still use all CPUs.  Affinity is the only thing changed, and only for this
process.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0004
ALLOWED = sorted(os.sched_getaffinity(0))


def _kernel() -> None:
    rng = random.Random(5)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
         for _ in range(5)]
    for c in range(5):
        p = next((i for i in range(c, 5) if a[i][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        for i in range(5):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]


def kernel_time(samples: int = 4) -> float:
    """Mean time of a few runs of the kernel, in seconds.  The slowdowns
    come in bursts of a few milliseconds; the mean follows the share of
    the CPU a job gets, where the fastest run would not."""
    t0 = perf_counter()
    for _ in range(samples):
        _kernel()
    return (perf_counter() - t0) / samples


def move_to_fastest() -> None:
    if len(ALLOWED) < 2:
        return
    speeds = []
    for cpu in ALLOWED:
        os.sched_setaffinity(0, {cpu})
        speeds.append((kernel_time(3), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})
    os.sched_setaffinity(0, ALLOWED)
