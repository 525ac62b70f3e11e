"""Machine-speed reference: a fixed pure-Python loop timed between commands.

The benchmark runs on shared hosts whose CPU speed drifts by a quarter
over seconds to minutes, in CPU time as much as in wall time, so raw
timings of the same code differ between runs by more than the changes
they should detect.  A run therefore samples the time of this loop
before and after every timed region (a command, or a setup import) and
scales the region's wall time by ``REFERENCE_S`` over the mean of the
two samples: a reference time is the time the region would have taken
on a machine where the loop takes ``REFERENCE_S``.  A change to the
program moves reference times like wall times; a change in the
machine's speed moves the region and the loop alike and cancels out.

The loop does the kinds of work the program does (integer arithmetic,
float arithmetic with calls into ``math``, and ``Fraction`` arithmetic)
and imports nothing from the program.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

#: loop time on the defining machine (2-vCPU x86-64 VM, Python 3.11), which
#: varied from 2.2 to 4.3 ms; reference times are expressed at this speed
REFERENCE_S = 0.003
#: untimed loops before the first timed one
WARMUP = 5
#: loops timed at each sampling point
LOOPS_PER_SAMPLE = 6


def _loop() -> float:
    total, x, q = 0, 0.0, Fraction(1, 3)
    for i in range(6000):
        total += i * i % 7
        x += math.sqrt(i * 0.5) * math.cos(i * 1e-3)
    for i in range(1, 250):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i)
    return x + total + float(q)


def sample() -> float:
    """Mean time of LOOPS_PER_SAMPLE loops; call it between timed regions."""
    start = time.perf_counter()
    for _ in range(LOOPS_PER_SAMPLE):
        _loop()
    return (time.perf_counter() - start) / LOOPS_PER_SAMPLE


def warm_up() -> float:
    """Run the loop until warm; returns the first sample."""
    for _ in range(WARMUP):
        _loop()
    return sample()


def scale(seconds: float, before: float, after: float) -> float:
    """Reference time of a region that took ``seconds`` between two samples."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
