"""Host-speed correction of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 20% and more over
tens of seconds, for every process alike, so raw wall times of the same code
differ more between two runs than the changes they should resolve.  To take
that drift out, a fixed reference computation, independent of affnil, is timed
in a short burst after every timed call and, for calls in this process, once a
second during the call (from a SIGALRM handler, whose time is taken off the
call's).  A call's time is then scaled by REF_NOMINAL_S over the mean of the
bursts just before, during and just after it.  A scaled time reads as the
call's wall time on a host where the reference burst takes REF_NOMINAL_S; a
change to affnil moves it, a change of host speed mostly does not.

The reference is exact rational Gaussian elimination with `fractions.Fraction`
on a fixed 9x9 matrix: small-integer and gcd work under interpreter overhead,
like affnil's own arithmetic, so both slow down together.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

REF_SIZE = 9
REF_BURST = 3
SAMPLE_PERIOD_S = 1.0
# median reference time on the baseline host at a quiet moment
# (2-vCPU Linux VM, Intel Xeon 2.1 GHz, Python 3.11.7)
REF_NOMINAL_S = 0.0014

_rng = random.Random("hostspeed")
_MATRIX = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(REF_SIZE)]
           for _ in range(REF_SIZE)]


def reference() -> Fraction:
    """Determinant of the fixed matrix by fraction-exact elimination."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(REF_SIZE):
        p = next(r for r in range(c, REF_SIZE) if a[r][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, REF_SIZE):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def burst() -> float:
    """Median time of REF_BURST reference runs."""
    times = []
    for _ in range(REF_BURST):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Times calls in reference-host seconds.

    in_process: sample the host speed during each call too.  Leave it off for
    calls that wait on a child process, which keeps running while a burst
    runs here."""

    def __init__(self, in_process: bool = True):
        self.in_process = in_process
        self.last = burst()
        self._armed = False
        self._during = []
        self._during_s = 0.0

    def _sample(self, signum, frame):
        if self._armed:
            t0 = time.perf_counter()
            self._during.append(burst())
            self._during_s += time.perf_counter() - t0

    def measure(self, fn) -> tuple:
        """(scaled seconds, result) of fn()."""
        self._during, self._during_s = [], 0.0
        if self.in_process:
            previous = signal.signal(signal.SIGALRM, self._sample)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.in_process:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0 - self._during_s
        before, self.last = self.last, burst()
        speed = statistics.mean([before, *self._during, self.last])
        return seconds * REF_NOMINAL_S / speed, result
