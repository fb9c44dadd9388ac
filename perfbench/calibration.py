"""A fixed reference computation that measures the machine's current speed.

The benchmark's host can change speed by a factor of two within minutes
(shared cores, frequency changes), and every op slows down alike.  Runs
therefore time this computation between ops, in the same kind of forked
process, and scale each op's time by REFERENCE_S / (its local calibration
time): reported times are seconds at the speed where one calibration takes
REFERENCE_S.  The computation mixes what the program spends its time on
(interpreted Python, big integers, fractions and mpmath floats) and uses no
zetaforge code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import mpmath as mp

REFERENCE_S = 0.015
REPEATS = 3


def _reference_work() -> None:
    total = Fraction(0)
    for k in range(1, 500):
        total += Fraction(1, k * k)
    x, m = 3**2000, 10**600 + 7
    for i in range(400):
        x = (x * x + i) % m
    with mp.workdps(60):
        y = mp.mpf(1)
        for k in range(1, 500):
            y = y * mp.mpf(k + 1) / k + mp.sqrt(k)


def calibrate() -> float:
    """Median seconds of REPEATS runs of the reference computation."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
