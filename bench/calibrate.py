"""Host-speed calibration interleaved with a pass's operations.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two, over seconds and over minutes; a fixed set of operations
then takes anywhere from 0.7 to 1.4 times its median wall time, and no run
length averages that out.  What does cancel it is to time, close to the
work, a fixed reference kernel that is independent of charkit, and divide.

``Calibrator`` does that from a timer signal: every ``PERIOD_S`` of wall
time its handler runs the reference kernel once and records how long the
work since the previous calibration took and how long the kernel took.
The handler runs between two bytecodes of whatever charkit is doing, so
long operations are calibrated from within as well as at their ends.  Each
work segment is divided by the mean of the kernel times on either side of
it; the sum over segments is the pass's run time in reference units.  The
kernel's own time is kept out of every measured time.  Set-up, a third of a
second, is divided by the median kernel over it and reported in seconds at
the speed where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel resembles charkit's inner loops without calling them: a sparse
product of two 7-variable polynomials held as dicts from exponent tuples to
20-bit integers, about 3 ms on a shared two-core Xeon host.  There, over
repeated passes of one workload, the spread (interquartile range over
median) of the raw run time was 0.09-0.12 and that of the reference-unit
time 0.03.  Dividing by the median kernel of the whole pass, instead of the
kernels next to each segment, left 0.04-0.08: the speed changes within a
pass.  The kernel stays in the processor's caches, so work bound by memory
or by file writes tracks it less closely: over one disturbed minute the
recall workload's raw run time rose 29 % and its reference-unit time 15 %.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.05
TERMS = 40
# The kernel's typical time on the shared two-core Xeon host where the
# benchmark was written: set-up time is reported in seconds at this speed.
REFERENCE_KERNEL_S = 0.003


def _poly(seed):
    rng = random.Random(seed)
    return {tuple(rng.randrange(4) for _ in range(7)): rng.randrange(1, 1 << 20)
            for _ in range(TERMS)}


_A = _poly(1)
_B = _poly(2)


def reference_kernel():
    """One unit of reference work; returns the product's term count."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return len(out)


class Calibrator:
    """Interleaves the reference kernel with the work between start and stop.

    ``spent_s`` is the wall time the kernel has taken so far; callers that
    time an operation subtract its change over the operation.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.segments = []   # work seconds between two calibrations
        self.kernels = []    # kernel seconds; one more entry than segments
        self.spent_s = 0.0
        self._mark = 0.0
        self._previous = None

    def _calibrate(self):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.kernels.append(end - start)
        self.spent_s += end - start
        self._mark = end

    def _tick(self, signum=None, frame=None):
        self.segments.append(time.perf_counter() - self._mark)
        self._calibrate()

    def start(self):
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def work_s(self):
        """Wall time of the work, the kernel's own time left out."""
        return sum(self.segments)

    def work_ref(self):
        """The work's time in units of the kernel's time next to it."""
        k = self.kernels
        return sum(seg / ((k[i] + k[i + 1]) / 2)
                   for i, seg in enumerate(self.segments))
