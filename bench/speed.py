"""The host's current speed, measured by a fixed loop that uses no gha code.

On the 2-vCPU host this benchmark was built on (Intel Xeon, CPython
3.11.7), each CPU alternates between a fast and a slow state 1.6-2x
apart, in phases that last from seconds to tens of seconds.  CPU time
slows as much as wall time, so it does not help: rounds of the same work
took between 4.1 s and 6.9 s of wall time, and the spread between runs of
three rounds was 20-33% of the median.

So every time the benchmark reports is scaled to a reference speed.  The
calibration loop below runs next to the measured work, and a time t
measured where the loop took c seconds is reported as t * REFERENCE_S / c.
The loop does the kind of work the package does: Fraction arithmetic,
big-integer products and small-object allocation.  It never changes with
the package, so a change to gha moves the scaled times as much as it moves
the raw ones, while the host's phases mostly cancel.  REFERENCE_S is about
the loop's time in the host's fast state, so scaled times read close to
seconds there.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.000625  # per repetition of the loop
# repetitions for scaling a span measured as a whole (a set-up, a cold
# launch): about 25 ms, so that when another process shares the CPU the
# loop loses its share of time slices like the span does.  Four
# repetitions fit into one slice, and a cold launch next to a busy
# process then read 35-40% high after scaling; forty read 2-11% high.
SPAN_REPS = 40
INTERVAL_S = 0.05  # between samples of Sampler
WINDOW_S = 0.25  # samples this close to an operation also count

_A = [Fraction(i + 1, 3 * i + 2) for i in range(10)]
_B = [Fraction(2 * i - 5, i + 7) for i in range(10)]


def calibrate(reps: int = 4) -> float:
    """Seconds per repetition of the fixed calibration loop (0.6-1 ms).

    The collector is off while it runs, so that the garbage the measured
    work left behind does not count against the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    for _ in range(reps):
        out = [Fraction(0)] * 19
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
        acc = 1
        for c in out:
            acc = acc * (c.numerator * 10**60 + c.denominator) + 1
        table = {(i, -i): (acc % (i + 2), i) for i in range(150)}
    elapsed = time.perf_counter() - t
    if enabled:
        gc.enable()
    del table
    return elapsed / reps


def factor(*calibrations: float) -> float:
    """Scale for a time measured between the given calibrations."""
    return REFERENCE_S / (sum(calibrations) / len(calibrations))


class Sampler:
    """Calibrates every INTERVAL_S seconds from a SIGALRM handler.

    A long operation may span a change of phase, so one calibration before
    and one after it would not do: this scales each operation by the
    samples taken while it ran, and takes the sampler's own time out.  A
    single sample varies by about 10%, so the samples of WINDOW_S seconds
    on either side count too; phases mostly last much longer than that.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.cals: list[float] = []
        self.costs: list[float] = []

    def _sample(self, *_):
        t = time.perf_counter()
        self.cals.append(calibrate(1))
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scaled(self, a: float, b: float) -> float:
        """The time from a to b, less sampling, at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        own = sum(self.costs[lo:hi])
        near_lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        near_hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        cals = self.cals[near_lo:near_hi] or self.cals[max(lo - 1, 0):hi + 1]
        return (b - a - own) * factor(*cals)
