"""A fixed reference computation that measures how fast the CPU runs right now.

On a shared machine the speed of a CPU-bound Python process drifts by tens
of percent over seconds to minutes, alike for every pure-Python workload.
Timing this loop next to the package's ops lets run.py rescale each op's
time to one nominal CPU speed. The loop uses mpmath only, never the package
under test, so no change to the package can move it.
"""
import time

import mpmath

# The loop's duration at the nominal CPU speed every reported time is scaled
# to: roughly its fastest duration on a 2-CPU x86-64 machine with mpmath's
# pure-Python backend. Changing it rescales every time metric.
NOMINAL_S = 0.0125


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    with mpmath.mp.workprec(256):
        prod = mpmath.mpf(1)
        q = mpmath.mpf("0.9")
        qk = mpmath.mpf(1)
        for _ in range(2000):
            prod *= 1 - qk / 3
            qk *= q
    return time.perf_counter() - start
