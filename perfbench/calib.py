"""The fixed reference work that calibrates every benchmark time.

The machines this benchmark runs on change speed by tens of percent over
minutes, because other tenants share their cores.  Timing a fixed piece
of pure-Python work next to each measured interval tells how fast the
machine was just then; an interval is reported as the time it would have
taken on a machine where the reference takes REF_S.  The reference never
runs atlq code, so a change to the engine moves calibrated times exactly
as it moves raw ones.
"""

import statistics
import time
from fractions import Fraction

# the calibration unit: the reference's time on a quiet 2-vCPU Xeon host
REF_S = 0.010
REPEATS = 15
_ZERO = Fraction(0)


def reference_s() -> float:
    """Median time of the reference work: dict updates with Fraction sums."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc: dict = {}
        for i in range(4000):
            key = (i % 97, "+-"[i % 2] * (i % 5))
            acc[key] = acc.get(key, _ZERO) + Fraction(i % 7, 1 + i % 3)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
