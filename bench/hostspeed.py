"""How fast the host runs right now, from a fixed reference kernel.

The host the benchmark runs on is shared: the same pass of the same code
takes up to half as long again from one minute to the next, in user CPU
time as well as in wall time, and the two speeds alternate within seconds.
Runs of a minute cannot average that away, so the timed parts of every
untraced pass are bracketed by runs of a reference kernel that does not
depend on the landau package.  A time ``t`` measured between kernel runs
that took ``k1`` and ``k2`` seconds is reported as
``t * REFERENCE_S / mean(k1, k2)``: the time the part would have taken had
the host run the kernel at the reference speed.  Program changes move ``t``
and not ``k``, so they show in full; slow spells of the host move both.

The kernel is a plain interpreter loop over small ints.  On the host the
benchmark was defined on (2 cores of an Intel Xeon, Python 3.11.7, numpy
2.4.6), in its slow spells this loop, a walks-batch job and a transitive
realize all took 1.2-1.3 times as long as in its fast ones, while kernels
of numpy row operations (as in the BFS of ``realize``) or of building and
formatting small Python objects took 1.5-1.6 times as long, and would
have over-corrected.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Seconds near the median of one :func:`kernel` call on the host above.
REFERENCE_S = 0.25
_ITERATIONS = 2_500_000


def kernel() -> int:
    """The reference work; returns a checksum so nothing is optimised away."""
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return acc


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel runs between the timed parts of one pass.

    Made just before the first timed part; after each part, :meth:`scale`
    runs the kernel again and returns the factor for the part in between.
    """

    def __init__(self):
        self.kernel_s: List[float] = [measure()]

    def scale(self) -> float:
        self.kernel_s.append(measure())
        return REFERENCE_S / statistics.mean(self.kernel_s[-2:])
